// Package errflowfix is the golden fixture for the errflow pass. The
// types File, FS and SystemLog are testdata stand-ins for the real
// iofault.File, iofault.FS and wal.SystemLog sink types — the pass
// recognizes them by name inside testdata so the fixture does not drag
// the whole engine into its dependency graph.
package errflowfix

import "errors"

// ErrPoisoned is a local sentinel, wrapped by the engine's convention.
var ErrPoisoned = errors.New("errflowfix: poisoned")

type File struct{}

func (File) Write(p []byte) (int, error) { return len(p), nil }
func (File) Sync() error                 { return nil }
func (File) Truncate(size int64) error   { return nil }

type FS struct{}

func (FS) OpenFile(name string) (File, error) { return File{}, nil }
func (FS) Rename(o, n string) error           { return nil }

type SystemLog struct{ f File }

func (l *SystemLog) Append(recs ...int) error { return nil }
func (l *SystemLog) Flush() error             { return nil }
func (l *SystemLog) poison(err error)         {}

// ---- rule 1: discarded durable errors ----

// Shape 1a: a bare expression statement throws the append error away.
func dropAppend(l *SystemLog) {
	l.Append(1) // want "error from SystemLog.Append is discarded"
}

// Shape 1b: a blank assignment in the error slot is the same discard.
func blankFlush(l *SystemLog) {
	_ = l.Flush() // want "error from SystemLog.Flush is discarded"
}

// Shape 1c: keeping the value but blanking the error.
func blankOpen(fs FS) File {
	f, _ := fs.OpenFile("log") // want "error from FS.OpenFile is discarded"
	return f
}

// Shape 1d: a deferred sink call has nowhere for its error to go.
func deferredTruncate(f File) {
	defer f.Truncate(0) // want "error from File.Truncate is discarded"
}

// ---- rule 2: sentinel comparisons ----

// Shape 2a: == stops matching the day the sentinel is wrapped.
func isPoisoned(err error) bool {
	return err == ErrPoisoned // want "sentinel ErrPoisoned compared with =="
}

// Shape 2b: != is the same trap.
func notPoisoned(err error) bool {
	return err != ErrPoisoned // want "sentinel ErrPoisoned compared with !="
}

// Shape 2c: a switch case is an == in disguise.
func classify(err error) string {
	switch err {
	case ErrPoisoned: // want "sentinel ErrPoisoned matched by switch case"
		return "poisoned"
	}
	return "other"
}

// ---- rule 3: failed durable sync must poison ----

// Shape 3a: the guard handles the error but never poisons.
func syncNoPoison(l *SystemLog) error {
	if err := l.f.Sync(); err != nil { // want "must reach the poison transition"
		return err
	}
	return nil
}

// Shape 3b: the error is captured but no guard ever poisons on it.
func syncUnguarded(l *SystemLog) error {
	serr := l.f.Sync() // want "never reaches the poison transition"
	return serr
}

// Shape 3c: returning the sync error lets it escape unpoisoned.
func syncEscapes(l *SystemLog) error {
	return l.f.Sync() // want "returned without the poison transition"
}

// ---- clean code ----

// Handling the error is enough for rule 1.
func appendChecked(l *SystemLog) error {
	if err := l.Append(1); err != nil {
		return err
	}
	return nil
}

// errors.Is is the sanctioned sentinel match.
func isPoisonedRight(err error) bool {
	return errors.Is(err, ErrPoisoned)
}

// The direct poison guard satisfies rule 3.
func syncPoisons(l *SystemLog) error {
	if err := l.f.Sync(); err != nil {
		l.poison(err)
		return err
	}
	return nil
}

// The deferred-guard idiom (capture now, poison in the shared error
// check) also satisfies rule 3.
func syncPoisonsLater(l *SystemLog, werr error) error {
	serr := l.f.Sync()
	if werr != nil || serr != nil {
		l.poison(errors.Join(werr, serr))
		return errors.Join(werr, serr)
	}
	return nil
}

// A Sync on a local temporary is certification, not the durable handle:
// rule 3 does not apply (rule 1 still wants the error checked).
func syncLocal(fs FS) error {
	f, err := fs.OpenFile("scratch")
	if err != nil {
		return err
	}
	return f.Sync()
}

// ---- rule 3, indexed durable handles ----

// FileSet is the stand-in for a log held in several durable files.
type FileSet struct {
	files []File
}

func (l *FileSet) poison(err error) {}

// Shape 3d: a failed force of file i is handled but never poisons — the
// other files keep acking commits over the hole.
func indexedSyncNoPoison(l *FileSet, i int) error {
	if err := l.files[i].Sync(); err != nil { // want "must reach the poison transition"
		return err
	}
	return nil
}

// Clean: any file's sync failure fail-stops the whole set.
func indexedSyncPoisons(l *FileSet, i int) error {
	if err := l.files[i].Sync(); err != nil {
		l.poison(err)
		return err
	}
	return nil
}

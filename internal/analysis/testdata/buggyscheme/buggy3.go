// buggy3.go carries the third generation of differential violations: the
// indexed durable-handle rule, firing exactly once. Kept in a separate
// file so the earlier generations' pinned line numbers in buggy.go and
// buggy2.go never shift. File is the testdata stand-in the errflow pass
// recognizes by name.
package buggyscheme

type fileSet struct {
	files []File
}

// Violation 10 (errflow, indexed durable handle): a failed force of one
// file of the set is returned without fail-stopping the set, so the
// other files keep acknowledging commits over the hole.
func (l *fileSet) forceFile(i int) error {
	if err := l.files[i].Sync(); err != nil {
		return err
	}
	return nil
}

type File struct{}

func (File) Sync() error { return nil }

package recovery

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/protect"
	"repro/internal/region"
	"repro/internal/wal"
)

// Options tunes recovery behaviour.
type Options struct {
	// ForceCorruptionMode runs the delete-transaction algorithm even when
	// the log records no failed audit (useful with ExtraCorrupt).
	ForceCorruptionMode bool
	// DisableCorruptionMode runs plain restart recovery unconditionally.
	DisableCorruptionMode bool
	// ExtraCorrupt supplies corruption detected by means other than
	// codeword audits (the paper's §4 note on external audit mechanisms
	// and asserts): the ranges are treated like ranges noted by a failed
	// audit.
	ExtraCorrupt []Range
	// SkipCompletionCheckpoint suppresses the checkpoint that normally
	// ends recovery. FOR CRASH DRILLS ONLY: it leaves the database in the
	// state a crash immediately before the completion checkpoint would —
	// the log carries recovery's compensation and abort records but the
	// anchor still names the old checkpoint — so tests can verify that a
	// subsequent recovery converges. A database opened this way should be
	// crashed, not used.
	SkipCompletionCheckpoint bool
}

// DeletedTxn reports a transaction removed from history by the
// delete-transaction algorithm. The identity of deleted transactions "is
// returned to the user to allow manual compensation" (§4.1).
type DeletedTxn struct {
	ID wal.TxnID
	// Committed reports whether the transaction had committed in the
	// original history (its commit record was found and ignored).
	Committed bool
}

// InDoubtTxn identifies a transaction left prepared by a crash: its
// prepare record is durable but no commit/abort resolved it locally. It
// remains attached in the ATT, holding its undo log, until the shard
// router (or any 2PC coordinator logic) applies the decision through
// core.Txn.CommitPrepared / AbortPrepared on the adopted handle.
type InDoubtTxn struct {
	ID  wal.TxnID
	GID uint64
}

// Report summarizes a recovery run.
type Report struct {
	// FreshDatabase is true when no checkpoint or log existed.
	FreshDatabase bool
	// CheckpointSeq is the sequence number of the checkpoint recovered
	// from (0 when recovering from an empty image).
	CheckpointSeq uint64
	// ScanStart is CK_end, where the forward scan began.
	ScanStart wal.LSN
	// RecordsScanned counts log records visited; RedoApplied counts
	// physical records applied to the image.
	RecordsScanned int
	RedoApplied    int
	// CorruptionMode reports whether the delete-transaction algorithm
	// ran; CWMode whether the codeword-in-read-log variant was used.
	CorruptionMode bool
	CWMode         bool
	// AuditSN is the Audit_SN used (LSN of the last clean audit's begin).
	AuditSN wal.LSN
	// SeedCorrupt is the corrupt data seeded at Audit_SN (failed-audit
	// ranges plus Options.ExtraCorrupt).
	SeedCorrupt []Range
	// Deleted lists transactions removed from history, sorted by ID.
	Deleted []DeletedTxn
	// RolledBack lists incomplete (non-deleted) transactions rolled back.
	RolledBack []wal.TxnID
	// FinalCorrupt is the final CorruptDataTable contents.
	FinalCorrupt []Range
	// UsedFallbackImage reports that the anchored checkpoint image was
	// corrupt on disk (torn page, bad meta) and recovery started from the
	// other ping-pong image instead, replaying the log from its older
	// CK_end.
	UsedFallbackImage bool
	// InDoubt lists 2PC-prepared transactions recovery left attached
	// (neither undone nor released), sorted by ID. The opener must resolve
	// each against its coordinator's decision.
	InDoubt []InDoubtTxn
	// Decisions maps global transaction IDs to the coordinator verdicts
	// (true = commit) found in this database's log — populated only on a
	// shard that acted as coordinator.
	Decisions map[uint64]bool
}

// Open opens the database in cfg.Dir, running restart recovery if it has
// any durable state. When the log records a failed audit (or
// Options.ExtraCorrupt is given, or the scheme stores codewords in read
// log records), the delete-transaction corruption recovery algorithm of
// §4.3 runs as part of restart recovery; otherwise plain multi-level
// restart recovery runs. Recovery ends with a checkpoint, so a subsequent
// crash recovers from a clean image. A directory written in the
// multi-stream log layout is refused before anything in it changes.
func Open(cfg core.Config, opts Options) (*core.DB, *Report, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	if err := wal.CheckSingleLog(cfg.FS, cfg.Dir); err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	report := &Report{}

	anchorExists := fileExists(filepath.Join(cfg.Dir, ckpt.AnchorFileName))
	logExists := fileExists(filepath.Join(cfg.Dir, wal.LogFileName))
	if !anchorExists && !logExists {
		db, err := core.Open(cfg)
		if err != nil {
			return nil, nil, err
		}
		report.FreshDatabase = true
		return db, report, nil
	}

	// Load the current certified checkpoint (or start from a zero image
	// if the database crashed before its first checkpoint completed).
	imageSize := roundUp(cfg.ArenaSize, cfg.PageSize)
	var (
		image   []byte
		meta    []byte
		entries = make(map[wal.TxnID]*wal.TxnEntry)
		ckEnd   wal.LSN
		auditSN wal.LSN
		fbFrom  int // images involved in a fallback load, for the event
		fbTo    int
	)
	if anchorExists {
		loaded, err := ckpt.LoadFS(cfg.FS, cfg.Dir)
		if errors.Is(err, ckpt.ErrImageCorrupt) {
			// The anchored image cannot be trusted (a torn page from lying
			// storage, a bad meta checksum). The other ping-pong image is
			// one checkpoint older but was certified in its day; it is a
			// valid starting point exactly when the stable log still
			// reaches back to its CK_end (log compaction normally discards
			// those records, so this rescue mostly applies to databases run
			// with DisableLogCompaction).
			loadErr := err
			fb, fberr := ckpt.LoadFallbackFS(cfg.FS, cfg.Dir)
			if fberr != nil {
				return nil, nil, fmt.Errorf("recovery: %w (fallback image also unusable: %v)", loadErr, fberr)
			}
			base, berr := wal.LogBaseFS(cfg.FS, cfg.Dir)
			if berr != nil {
				return nil, nil, fmt.Errorf("recovery: %w (fallback log base: %v)", loadErr, berr)
			}
			if base > fb.Anchor.CKEnd {
				return nil, nil, fmt.Errorf("recovery: %w (fallback image needs log from %d but log was compacted to %d)",
					loadErr, fb.Anchor.CKEnd, base)
			}
			loaded, err = fb, nil
			report.UsedFallbackImage = true
			fbTo = fb.Anchor.Current
			fbFrom = 1 - fbTo
		}
		if err != nil {
			return nil, nil, fmt.Errorf("recovery: %w", err)
		}
		if len(loaded.Image) != imageSize {
			return nil, nil, fmt.Errorf("recovery: checkpoint image is %d bytes, config implies %d",
				len(loaded.Image), imageSize)
		}
		image = loaded.Image
		meta = loaded.Meta
		ckEnd = loaded.Anchor.CKEnd
		auditSN = loaded.Anchor.AuditSN
		report.CheckpointSeq = loaded.Anchor.SeqNo
		for _, e := range loaded.ATTEntries {
			entries[e.ID] = e
		}
	} else {
		image = make([]byte, imageSize)
	}
	db, rep, err := openFrom(cfg, image, meta, entries, ckEnd, auditSN, opts, report)
	if err == nil && rep.UsedFallbackImage {
		reg := db.Observability()
		reg.Counter(obs.NameCkptFallbacks).Inc()
		if reg.HasSinks() {
			reg.Emit(obs.CkptFallbackEvent{From: fbFrom, To: fbTo})
		}
	}
	return db, rep, err
}

// ImageState is an externally supplied starting point for recovery: a
// consistent database image and the log position it is consistent with
// (an archive). No in-flight transactions may exist at that position.
type ImageState struct {
	Image   []byte
	Meta    []byte
	CKEnd   wal.LSN
	AuditSN wal.LSN
}

// OpenFromImage runs restart recovery from an externally supplied image
// instead of the current checkpoint (media recovery from an archive). The
// directory's retained log must reach back to st.CKEnd. The checkpoint
// anchor and images in the directory are ignored and replaced by the
// completion checkpoint — unless the anchor or a log stream file marks
// the multi-stream layout, which is refused before anything changes.
func OpenFromImage(cfg core.Config, st ImageState, opts Options) (*core.DB, *Report, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return nil, nil, err
	}
	if err := wal.CheckSingleLog(cfg.FS, cfg.Dir); err != nil {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	if _, err := ckpt.OpenFS(cfg.FS, cfg.Dir, cfg.PageSize); errors.Is(err, wal.ErrMultiStreamLog) {
		return nil, nil, fmt.Errorf("recovery: %w", err)
	}
	imageSize := roundUp(cfg.ArenaSize, cfg.PageSize)
	if len(st.Image) != imageSize {
		return nil, nil, fmt.Errorf("recovery: supplied image is %d bytes, config implies %d",
			len(st.Image), imageSize)
	}
	report := &Report{ScanStart: st.CKEnd}
	image := append([]byte(nil), st.Image...)
	return openFrom(cfg, image, st.Meta, make(map[wal.TxnID]*wal.TxnEntry),
		st.CKEnd, st.AuditSN, opts, report)
}

// openFrom is the shared redo/undo/checkpoint pipeline behind Open and
// OpenFromImage. Each phase's wall time lands in the recovered database's
// registry (recovery.scan_ns, redo_ns, rebuild_ns, undo_ns,
// checkpoint_ns), one observation per recovery.
func openFrom(cfg core.Config, image, meta []byte, entries map[wal.TxnID]*wal.TxnEntry,
	ckEnd, auditSN wal.LSN, opts Options, report *Report) (*core.DB, *Report, error) {
	report.ScanStart = ckEnd

	// One read of the log from CK_end: both the pre-scan and the redo scan
	// walk the materialized records.
	start := time.Now()
	var recs []*wal.Record
	if err := wal.ScanFS(cfg.FS, cfg.Dir, ckEnd, func(r *wal.Record) bool {
		recs = append(recs, r)
		return true
	}); err != nil {
		return nil, nil, err
	}
	scanNS := time.Since(start)
	start = time.Now()

	// Pre-scan: locate the last clean audit (Audit_SN), gather the
	// corrupt ranges noted by failed audits, and find the ID horizon.
	pre := prescan(recs, auditSN)

	pcfg := cfg.Protect.Defaulted()
	cwMode := pcfg.Kind == protect.KindCWReadLog && !opts.DisableCorruptionMode
	corruptionMode := cwMode || opts.ForceCorruptionMode ||
		(!opts.DisableCorruptionMode && (len(pre.failRanges) > 0 || len(opts.ExtraCorrupt) > 0))
	report.CorruptionMode = corruptionMode
	report.CWMode = cwMode
	report.AuditSN = pre.lastCleanBegin

	var seed []Range
	seed = append(seed, pre.failRanges...)
	seed = append(seed, opts.ExtraCorrupt...)
	report.SeedCorrupt = seed

	// Redo phase: one forward scan from CK_end, repeating history
	// physically in log order — except for transactions found to have
	// read corrupt data, whose writes are diverted into the
	// CorruptDataTable (§4.3). Plain and corruption-mode recovery share
	// this loop; each physical redo is copied into the image as the scan
	// reaches it, so the corrupt-read checks see the image as it evolves.
	scanState := &redoScan{
		image:      image,
		regionSize: pcfg.RegionSize,
		entries:    entries,
		ctt:        make(map[wal.TxnID]*DeletedTxn),
		cwMode:     cwMode,
		corruption: corruptionMode,
		seed:       seed,
		maxTxn:     pre.maxTxn,
	}
	for id := range entries {
		if id > scanState.maxTxn {
			scanState.maxTxn = id
		}
	}
	if corruptionMode && !cwMode && pre.lastCleanBegin <= ckEnd {
		scanState.seedNow()
	}
	for _, r := range recs {
		if corruptionMode && !cwMode && !scanState.seeded && r.LSN >= pre.lastCleanBegin {
			// The scan reached Audit_SN (the begin record of the last clean
			// audit): seed the data known corrupt at that point.
			scanState.seedNow()
		}
		if !scanState.step(r) {
			break
		}
	}
	if scanState.err != nil {
		return nil, nil, scanState.err
	}
	report.RecordsScanned = scanState.scanned
	report.RedoApplied = scanState.applied
	redoNS := time.Since(start)

	// Assemble the database around the recovered image (codewords are
	// recomputed from it).
	start = time.Now()
	db, err := core.NewRecovered(cfg, &core.RecoveredState{
		Image:     image,
		Meta:      meta,
		NextTxnID: scanState.maxTxn + 1,
		AuditSN:   pre.maxAuditSN,
	})
	if err != nil {
		return nil, nil, err
	}
	reg := db.Observability()
	reg.Histogram(obs.NameRecoveryScanNS).ObserveDuration(scanNS)
	reg.Histogram(obs.NameRecoveryRedoNS).ObserveDuration(redoNS)
	reg.Histogram(obs.NameRecoveryRebuildNS).Since(start)

	// Undo phase: every remaining entry — incomplete transactions and
	// deleted (corrupt) transactions alike — is rolled back, level by
	// level: first the physical undos of operations that never committed,
	// then logical undos across transactions in reverse operation-commit
	// order.
	start = time.Now()
	if err := undoPhase(db, entries, scanState.ctt, report); err != nil {
		db.Close()
		return nil, nil, err
	}
	reg.Histogram(obs.NameRecoveryUndoNS).Since(start)
	report.FinalCorrupt = scanState.cdt.Ranges()
	report.Decisions = scanState.decisions

	// Completion checkpoint (§4.3): without it a future recovery would
	// rediscover the same corruption and delete transactions that started
	// after this recovery.
	if opts.SkipCompletionCheckpoint {
		if err := db.Internals().Log.Flush(); err != nil {
			db.Close()
			return nil, nil, err
		}
		return db, report, nil
	}
	start = time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("recovery: completion checkpoint: %w", err)
	}
	reg.Histogram(obs.NameRecoveryCheckpointNS).Since(start)
	return db, report, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func roundUp(n, multiple int) int {
	if r := n % multiple; r != 0 {
		return n + multiple - r
	}
	return n
}

// prescanResult carries what the first pass learned.
type prescanResult struct {
	lastCleanBegin wal.LSN
	failRanges     []Range
	maxTxn         wal.TxnID
	maxAuditSN     uint64
}

// prescan finds Audit_SN (the begin LSN of the last clean audit), the
// ranges noted corrupt by failed audits, and the transaction/audit ID
// horizons. It must be a separate pass because corrupt ranges are seeded
// into the CorruptDataTable when the main scan passes Audit_SN, which is
// earlier in the log than the failed audit that noted them.
func prescan(recs []*wal.Record, anchorAuditSN wal.LSN) *prescanResult {
	res := &prescanResult{lastCleanBegin: anchorAuditSN}
	begins := make(map[uint64]wal.LSN)
	for _, r := range recs {
		if r.Txn > res.maxTxn {
			res.maxTxn = r.Txn
		}
		switch r.Kind {
		case wal.KindAuditBegin:
			begins[r.AuditSN] = r.LSN
			if r.AuditSN > res.maxAuditSN {
				res.maxAuditSN = r.AuditSN
			}
		case wal.KindAuditEnd:
			if r.AuditSN > res.maxAuditSN {
				res.maxAuditSN = r.AuditSN
			}
			if r.AuditClean {
				if lsn, ok := begins[r.AuditSN]; ok && lsn > res.lastCleanBegin {
					res.lastCleanBegin = lsn
				}
			} else {
				for i := range r.CorruptAddrs {
					res.failRanges = append(res.failRanges, Range{
						Start: r.CorruptAddrs[i], Len: int(r.CorruptLens[i]),
					})
				}
			}
		}
	}
	return res
}

// redoScan is the state of the redo phase's forward scan.
type redoScan struct {
	image      []byte
	regionSize int
	entries    map[wal.TxnID]*wal.TxnEntry
	ctt        map[wal.TxnID]*DeletedTxn // CorruptTransTable
	cdt        RangeSet                  // CorruptDataTable
	cwMode     bool
	corruption bool
	seed       []Range
	seeded     bool
	maxTxn     wal.TxnID
	scanned    int
	applied    int
	decisions  map[uint64]bool // coordinator verdicts seen in this log
	err        error
}

func (s *redoScan) seedNow() {
	for _, r := range s.seed {
		s.cdt.Add(r)
	}
	s.seeded = true
}

func (s *redoScan) entry(id wal.TxnID) *wal.TxnEntry {
	e, ok := s.entries[id]
	if !ok {
		e = &wal.TxnEntry{ID: id, State: wal.TxnActive}
		s.entries[id] = e
	}
	return e
}

func (s *redoScan) inCTT(id wal.TxnID) bool {
	_, ok := s.ctt[id]
	return ok
}

func (s *redoScan) addCTT(id wal.TxnID) {
	if _, ok := s.ctt[id]; !ok {
		s.ctt[id] = &DeletedTxn{ID: id}
	}
}

// imageCW computes the XOR-combined codeword of the protection regions
// covering [addr, addr+n) in the image being recovered; this is the value
// the CW Read Logging scheme logged at read/write time.
func (s *redoScan) imageCW(addr mem.Addr, n int) region.Codeword {
	if n <= 0 {
		return 0
	}
	first := int(addr) / s.regionSize
	last := (int(addr) + n - 1) / s.regionSize
	var cw region.Codeword
	for r := first; r <= last; r++ {
		start := r * s.regionSize
		end := start + s.regionSize
		if end > len(s.image) {
			break
		}
		cw ^= region.Compute(s.image[start:end])
	}
	return cw
}

// readIndicatesCorrupt decides whether a read log record shows the
// transaction read corrupt data: by CorruptDataTable overlap, or — in the
// CW variant — by the logged codeword disagreeing with the codeword
// computed from the image being recovered (§4.3 extension, case 1).
func (s *redoScan) readIndicatesCorrupt(r *wal.Record) bool {
	if s.cwMode && r.HasCW {
		return s.imageCW(r.Addr, r.Len) != r.CW
	}
	return s.cdt.Overlaps(r.Addr, r.Len)
}

// writeIndicatesCorrupt decides the same for a physical write record: a
// write is treated as a read followed by a write (§4.3 extension, case
// 2), so an in-place update of corrupt data marks the writer corrupt.
func (s *redoScan) writeIndicatesCorrupt(r *wal.Record) bool {
	if s.cwMode && r.HasCW {
		return s.imageCW(r.Addr, len(r.Data)) != r.CW
	}
	return s.cdt.Overlaps(r.Addr, len(r.Data))
}

// conflictsWithCTT reports whether an operation on key conflicts with any
// operation in the undo log of a corrupted transaction. Allowing such an
// operation to proceed would prevent the corrupt transaction from being
// rolled back (§4.3, begin-operation rule).
func (s *redoScan) conflictsWithCTT(key wal.ObjectKey) bool {
	for id := range s.ctt {
		if e, ok := s.entries[id]; ok && e.HasUndoForKey(key) {
			return true
		}
	}
	return false
}

// step processes one log record of the forward scan.
func (s *redoScan) step(r *wal.Record) bool {
	s.scanned++
	if r.Txn > s.maxTxn {
		s.maxTxn = r.Txn
	}
	switch r.Kind {
	case wal.KindTxnBegin:
		s.entry(r.Txn)

	case wal.KindRead:
		if !s.corruption || s.inCTT(r.Txn) {
			break
		}
		if s.readIndicatesCorrupt(r) {
			s.addCTT(r.Txn)
		}

	case wal.KindPhysRedo:
		if s.corruption && s.inCTT(r.Txn) {
			// The transaction read corrupt data: its writes are not
			// applied; the data it would have written is noted corrupt.
			s.cdt.Add(Range{Start: r.Addr, Len: len(r.Data)})
			break
		}
		if s.corruption && s.writeIndicatesCorrupt(r) {
			s.addCTT(r.Txn)
			s.cdt.Add(Range{Start: r.Addr, Len: len(r.Data)})
			break
		}
		end := int(r.Addr) + len(r.Data)
		if end > len(s.image) {
			s.err = fmt.Errorf("recovery: redo record [%d,+%d) beyond image", r.Addr, len(r.Data))
			return false
		}
		u := s.entry(r.Txn).PushPhysUndo(r.Addr, append([]byte(nil), s.image[r.Addr:end]...))
		u.CodewordPending = false // codewords are recomputed wholesale after redo
		copy(s.image[r.Addr:end], r.Data)
		s.applied++

	case wal.KindOpBegin:
		if s.inCTT(r.Txn) {
			break
		}
		if s.corruption && s.conflictsWithCTT(r.Key) {
			s.addCTT(r.Txn)
			break
		}
		s.entry(r.Txn).PushOpBegin(r.Level, r.Key)

	case wal.KindOpCommit:
		if s.inCTT(r.Txn) {
			break // logical records of corrupt transactions are ignored
		}
		e := s.entry(r.Txn)
		if r.Compensation {
			if err := e.CommitCompensationOp(); err != nil {
				s.err = fmt.Errorf("recovery: %w", err)
				return false
			}
		} else {
			if err := e.CommitOp(r.Level, r.Key, r.Undo, r.LSN); err != nil {
				s.err = fmt.Errorf("recovery: %w", err)
				return false
			}
		}

	case wal.KindTxnCommit:
		if d, ok := s.ctt[r.Txn]; ok {
			d.Committed = true // ignored: the commit is deleted from history
			break
		}
		delete(s.entries, r.Txn)

	case wal.KindTxnAbort:
		if s.inCTT(r.Txn) {
			break
		}
		delete(s.entries, r.Txn)

	case wal.KindTxnPrepare:
		if s.inCTT(r.Txn) {
			// Delete-transaction semantics trump 2PC: a prepared
			// transaction that read corrupt data is deleted from history
			// like any other, and presumed abort covers the global side.
			break
		}
		e := s.entry(r.Txn)
		e.State = wal.TxnPrepared
		e.GID = r.GID

	case wal.KindTxnDecision:
		if s.decisions == nil {
			s.decisions = make(map[uint64]bool)
		}
		s.decisions[r.GID] = r.Decision

	case wal.KindAuditBegin, wal.KindAuditEnd:
		// Handled by the pre-scan.
	}
	return true
}

// undoPhase rolls back every remaining transaction: physical undo of
// operations that never committed first (level 0), then logical undo of
// committed operations across transactions in descending commit-LSN
// order (level by level, newest first). 2PC-prepared transactions are the
// exception: they are attached to the ATT but neither undone nor
// finalized — their fate belongs to their coordinator, and the caller
// resolves them through the report's InDoubt list.
func undoPhase(db *core.DB, entries map[wal.TxnID]*wal.TxnEntry, ctt map[wal.TxnID]*DeletedTxn, report *Report) error {
	ids := make([]wal.TxnID, 0, len(entries))
	for id := range entries {
		e := entries[id]
		if e.State == wal.TxnPrepared {
			// In corruption mode a prepared transaction can still be in the
			// CTT (it read corrupt data); deletion trumps the prepared
			// state, so only clean prepared transactions stay in doubt.
			if _, deleted := ctt[id]; !deleted {
				db.Internals().ATT.Attach(e)
				report.InDoubt = append(report.InDoubt, InDoubtTxn{ID: e.ID, GID: e.GID})
				continue
			}
			e.State = wal.TxnActive
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	sort.Slice(report.InDoubt, func(i, j int) bool { return report.InDoubt[i].ID < report.InDoubt[j].ID })

	txns := make(map[wal.TxnID]*core.Txn, len(ids))
	for _, id := range ids {
		e := entries[id]
		db.Internals().ATT.Attach(e)
		txns[id] = db.AdoptTxn(e)
	}

	// Level 0: physical undo of open operations.
	for _, id := range ids {
		if err := txns[id].UndoOpenOp(); err != nil {
			return fmt.Errorf("recovery: physical undo of txn %d: %w", id, err)
		}
	}
	// Level 1+: logical undos, globally newest-first.
	for {
		var best *core.Txn
		var bestLSN wal.LSN
		for _, id := range ids {
			e := entries[id]
			if n := len(e.Undo); n > 0 && e.Undo[n-1].Kind == wal.UndoLogical {
				if lsn := e.Undo[n-1].CommitLSN; best == nil || lsn > bestLSN {
					best, bestLSN = txns[id], lsn
				}
			}
		}
		if best == nil {
			break
		}
		if err := best.ExecLogicalUndoTop(); err != nil {
			return fmt.Errorf("recovery: logical undo of txn %d: %w", best.ID(), err)
		}
		// Executing a logical undo may expose physical/marker entries in
		// no legal history (compensations pop cleanly), but re-run the
		// physical pass defensively.
		if err := best.UndoOpenOp(); err != nil {
			return err
		}
	}
	// Finalize: abort records, ATT removal, report.
	for _, id := range ids {
		e := entries[id]
		if len(e.Undo) != 0 {
			return fmt.Errorf("recovery: txn %d not fully undone (%d entries left)", id, len(e.Undo))
		}
		txns[id].FinishAborted()
		if d, ok := ctt[id]; ok {
			report.Deleted = append(report.Deleted, *d)
		} else {
			report.RolledBack = append(report.RolledBack, id)
		}
	}
	// Deleted transactions that completed before the checkpoint horizon
	// have no entry; still report them.
	for id, d := range ctt {
		if _, ok := entries[id]; !ok {
			report.Deleted = append(report.Deleted, *d)
		}
	}
	sort.Slice(report.Deleted, func(i, j int) bool { return report.Deleted[i].ID < report.Deleted[j].ID })
	sort.Slice(report.RolledBack, func(i, j int) bool { return report.RolledBack[i] < report.RolledBack[j] })
	return nil
}

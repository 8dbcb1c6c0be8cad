// Package wal implements the logging subsystem of the reproduced Dalí
// storage manager: physical redo records, operation commit records
// carrying logical undo descriptions, transaction control records, the
// paper's read-log records (with optional codewords), per-transaction
// local undo and redo logs held in the active transaction table (ATT),
// and the system log with its in-memory tail and stable on-disk portion.
//
// Logging is "local" in the Dalí sense (paper §2): physical undo and redo
// records accumulate in the transaction's ATT entry, and when a
// lower-level operation commits, its redo records are moved to the system
// log tail and its physical undo records are replaced by a single logical
// undo record. Physical undo information reaches disk only inside
// checkpointed copies of the ATT, never through the log.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/mem"
	"repro/internal/region"
)

// LSN is a log sequence number: the byte offset of a record in the system
// log (stable portion plus in-memory tail).
type LSN uint64

// TxnID identifies a transaction.
type TxnID uint64

// ObjectKey identifies the logical object an operation manipulates (for
// the heap layer: table and slot). It is the unit at which operation
// conflicts are decided, both by the lock manager during normal operation
// and by the delete-transaction recovery algorithm when it checks a begin
// operation record against the undo logs of corrupted transactions.
type ObjectKey uint64

// Kind discriminates log record types.
type Kind uint8

// Log record kinds.
const (
	// KindPhysRedo is a physical after-image: addr, data. May carry the
	// region codeword observed by the writer when the CW Read Logging
	// scheme is active ("a codeword stored in a write log record indicates
	// it should be treated as a read followed by a write", paper §4.3).
	KindPhysRedo Kind = iota + 1
	// KindOpBegin marks the start of a lower-level operation on an object.
	KindOpBegin
	// KindOpCommit commits a lower-level operation and carries its logical
	// undo description.
	KindOpCommit
	// KindTxnBegin marks the start of a transaction.
	KindTxnBegin
	// KindTxnCommit commits a transaction.
	KindTxnCommit
	// KindTxnAbort records that a transaction's rollback completed.
	KindTxnAbort
	// KindRead is the paper's read-log record: the identity of data read
	// (start address and byte count) and optionally the codeword of the
	// enclosing region(s), but never the value itself.
	KindRead
	// KindAuditBegin marks the log position at which a database audit
	// began; its serial number becomes Audit_SN if the audit comes back
	// clean.
	KindAuditBegin
	// KindAuditEnd records the audit outcome (clean or the corrupt ranges).
	KindAuditEnd
	// KindTxnPrepare records that a transaction participating in a
	// cross-shard two-phase commit has entered the prepared state: all its
	// operations are committed at their level, its redo is in the system
	// log up to and including this record, and its fate now rests with the
	// coordinator's decision record (identified by the global transaction
	// ID carried in GID). Recovery keeps prepared transactions attached —
	// neither undone nor released — until the decision is known.
	KindTxnPrepare
	// KindTxnDecision is the coordinator's commit/abort decision for a
	// cross-shard transaction, written to the coordinator shard's log. GID
	// identifies the global transaction; Decision is true for commit.
	// Under presumed abort, a missing decision record means abort.
	KindTxnDecision
)

var kindNames = map[Kind]string{
	KindPhysRedo:    "phys-redo",
	KindOpBegin:     "op-begin",
	KindOpCommit:    "op-commit",
	KindTxnBegin:    "txn-begin",
	KindTxnCommit:   "txn-commit",
	KindTxnAbort:    "txn-abort",
	KindRead:        "read",
	KindAuditBegin:  "audit-begin",
	KindAuditEnd:    "audit-end",
	KindTxnPrepare:  "txn-prepare",
	KindTxnDecision: "txn-decision",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// LogicalUndo describes how to logically undo a committed lower-level
// operation. Op is an opcode registered by the storage layer (see package
// heap); Key is the object the undo applies to; Args is opcode-specific.
type LogicalUndo struct {
	Op   uint8
	Key  ObjectKey
	Args []byte
}

// Record is a system log record. A single struct with a kind
// discriminator keeps encoding and the recovery scan simple; unused
// fields are zero.
type Record struct {
	LSN  LSN // assigned when the record enters the system log tail
	Kind Kind
	Txn  TxnID

	// Physical fields (KindPhysRedo, KindRead).
	Addr mem.Addr
	Len  int    // byte count for KindRead
	Data []byte // after-image for KindPhysRedo

	// Optional codeword (KindRead, KindPhysRedo under CW Read Logging).
	HasCW bool
	CW    region.Codeword

	// Operation fields (KindOpBegin, KindOpCommit).
	Level uint8
	Key   ObjectKey
	Undo  LogicalUndo // valid for KindOpCommit
	// Compensation marks an operation executed during rollback to
	// logically undo an earlier committed operation. When recovery's redo
	// scan reconstructs a transaction's undo log and meets a compensating
	// op-commit, it pops the compensated logical undo entry instead of
	// pushing a new one (the compensated operation must not be undone
	// twice).
	Compensation bool

	// Audit fields (KindAuditBegin, KindAuditEnd).
	AuditSN      uint64
	AuditClean   bool
	CorruptAddrs []mem.Addr // start of each corrupt region (KindAuditEnd)
	CorruptLens  []uint32   // length of each corrupt region

	// Two-phase-commit fields (KindTxnPrepare, KindTxnDecision).
	GID      uint64 // global transaction ID (coordinator shard | coordinator txn)
	Decision bool   // coordinator verdict: true = commit (KindTxnDecision)
}

// Encoding layout: every record is framed as
//
//	[payloadLen uint32][crc32(payload) uint32][payload]
//
// so that a torn write at the stable log tail is detected and treated as
// the end of the log, as in any WAL implementation.
const frameHeaderSize = 8

var (
	// ErrTornRecord reports a truncated or corrupt record frame at the
	// stable log tail.
	ErrTornRecord = errors.New("wal: torn or corrupt log record")
	castagnoli    = crc32.MakeTable(crc32.Castagnoli)
)

// appendUvarint appends a varint-encoded value.
func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// EncodedSize returns the number of bytes Encode will produce for r,
// including framing. Used to assign LSNs before serialization.
func (r *Record) EncodedSize() int {
	return frameHeaderSize + len(r.encodePayload(nil))
}

// Encode appends the framed record to b.
func (r *Record) Encode(b []byte) []byte {
	payload := r.encodePayload(nil)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

func (r *Record) encodePayload(b []byte) []byte {
	b = append(b, byte(r.Kind))
	b = appendUvarint(b, uint64(r.Txn))
	switch r.Kind {
	case KindPhysRedo:
		b = appendUvarint(b, uint64(r.Addr))
		b = appendUvarint(b, uint64(len(r.Data)))
		b = append(b, r.Data...)
		b = r.encodeCW(b)
	case KindRead:
		b = appendUvarint(b, uint64(r.Addr))
		b = appendUvarint(b, uint64(r.Len))
		b = r.encodeCW(b)
	case KindOpBegin:
		b = append(b, r.Level)
		b = appendUvarint(b, uint64(r.Key))
	case KindOpCommit:
		b = append(b, r.Level)
		b = appendUvarint(b, uint64(r.Key))
		if r.Compensation {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = append(b, r.Undo.Op)
		b = appendUvarint(b, uint64(r.Undo.Key))
		b = appendUvarint(b, uint64(len(r.Undo.Args)))
		b = append(b, r.Undo.Args...)
	case KindTxnBegin, KindTxnCommit, KindTxnAbort:
		// Kind and Txn suffice.
	case KindTxnPrepare:
		b = appendUvarint(b, r.GID)
	case KindTxnDecision:
		b = appendUvarint(b, r.GID)
		if r.Decision {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case KindAuditBegin:
		b = appendUvarint(b, r.AuditSN)
	case KindAuditEnd:
		b = appendUvarint(b, r.AuditSN)
		if r.AuditClean {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendUvarint(b, uint64(len(r.CorruptAddrs)))
		for i := range r.CorruptAddrs {
			b = appendUvarint(b, uint64(r.CorruptAddrs[i]))
			b = appendUvarint(b, uint64(r.CorruptLens[i]))
		}
	}
	return b
}

func (r *Record) encodeCW(b []byte) []byte {
	if r.HasCW {
		b = append(b, 1)
		b = binary.LittleEndian.AppendUint64(b, uint64(r.CW))
	} else {
		b = append(b, 0)
	}
	return b
}

// decodeReader tracks a position in a payload buffer.
type decodeReader struct {
	buf []byte
	pos int
	err error
}

func (d *decodeReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		d.err = ErrTornRecord
		return 0
	}
	d.pos += n
	return v
}

func (d *decodeReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.buf) {
		d.err = ErrTornRecord
		return 0
	}
	b := d.buf[d.pos]
	d.pos++
	return b
}

func (d *decodeReader) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.buf) {
		d.err = ErrTornRecord
		return nil
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b
}

func (d *decodeReader) uint64() uint64 {
	b := d.bytes(8)
	if d.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// DecodeFrame decodes one framed record from b, returning the record and
// the number of bytes consumed. A short or corrupt frame yields
// ErrTornRecord, which scanners treat as end of log.
func DecodeFrame(b []byte) (*Record, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, ErrTornRecord
	}
	n := int(binary.LittleEndian.Uint32(b))
	sum := binary.LittleEndian.Uint32(b[4:])
	if len(b) < frameHeaderSize+n {
		return nil, 0, ErrTornRecord
	}
	payload := b[frameHeaderSize : frameHeaderSize+n]
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, 0, ErrTornRecord
	}
	r, err := decodePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return r, frameHeaderSize + n, nil
}

func decodePayload(payload []byte) (*Record, error) {
	d := &decodeReader{buf: payload}
	r := &Record{Kind: Kind(d.byte())}
	r.Txn = TxnID(d.uvarint())
	switch r.Kind {
	case KindPhysRedo:
		r.Addr = mem.Addr(d.uvarint())
		n := int(d.uvarint())
		r.Data = append([]byte(nil), d.bytes(n)...)
		r.decodeCW(d)
	case KindRead:
		r.Addr = mem.Addr(d.uvarint())
		r.Len = int(d.uvarint())
		r.decodeCW(d)
	case KindOpBegin:
		r.Level = d.byte()
		r.Key = ObjectKey(d.uvarint())
	case KindOpCommit:
		r.Level = d.byte()
		r.Key = ObjectKey(d.uvarint())
		r.Compensation = d.byte() == 1
		r.Undo.Op = d.byte()
		r.Undo.Key = ObjectKey(d.uvarint())
		n := int(d.uvarint())
		r.Undo.Args = append([]byte(nil), d.bytes(n)...)
	case KindTxnBegin, KindTxnCommit, KindTxnAbort:
	case KindTxnPrepare:
		r.GID = d.uvarint()
	case KindTxnDecision:
		r.GID = d.uvarint()
		r.Decision = d.byte() == 1
	case KindAuditBegin:
		r.AuditSN = d.uvarint()
	case KindAuditEnd:
		r.AuditSN = d.uvarint()
		r.AuditClean = d.byte() == 1
		n := int(d.uvarint())
		for i := 0; i < n && d.err == nil; i++ {
			r.CorruptAddrs = append(r.CorruptAddrs, mem.Addr(d.uvarint()))
			r.CorruptLens = append(r.CorruptLens, uint32(d.uvarint()))
		}
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrTornRecord, r.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	return r, nil
}

func (r *Record) decodeCW(d *decodeReader) {
	if d.byte() == 1 {
		r.HasCW = true
		r.CW = region.Codeword(d.uint64())
	}
}

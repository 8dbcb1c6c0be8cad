package main

import (
	"reflect"
	"testing"

	"repro/internal/tpcb"
)

func TestSeedFixesTheOpSequence(t *testing.T) {
	ops := func(seed int64, stream uint64) []tpcbOp {
		g := newTPCBGen(seed, stream, tpcb.PaperScale)
		out := make([]tpcbOp, 1000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(ops(42, 1), ops(42, 1)) {
		t.Fatal("the same seed and stream gave different TPC-B ops")
	}
	if reflect.DeepEqual(ops(42, 1), ops(43, 1)) || reflect.DeepEqual(ops(42, 1), ops(42, 2)) {
		t.Fatal("a different seed or stream gave the same TPC-B ops")
	}

	kv := func(seed int64) []kvTxn {
		g := newKVGen(seed, 1, kvKeys, kvValue)
		out := make([]kvTxn, 1000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	if !reflect.DeepEqual(kv(7), kv(7)) {
		t.Fatal("the same seed gave different kv-wire transactions")
	}
	if reflect.DeepEqual(kv(7), kv(8)) {
		t.Fatal("a different seed gave the same kv-wire transactions")
	}
}

func TestGeneratedInputsStayInRange(t *testing.T) {
	g := newTPCBGen(1, 0, tpcb.PaperScale)
	for i := 0; i < 10_000; i++ {
		op := g.next()
		if int(op.acct) >= tpcb.PaperScale.Accounts || int(op.tell) >= tpcb.PaperScale.Tellers ||
			int(op.brch) >= tpcb.PaperScale.Branches || op.delta < -999 || op.delta > 999 {
			t.Fatalf("op %d out of range: %+v", i, op)
		}
	}
	k := newKVGen(1, 0, kvKeys, kvValue)
	seen := map[string]bool{}
	for i := 0; i < 10_000; i++ {
		tx := k.next()
		if tx.put >= kvKeys || len(tx.val) != kvValue || seen[string(tx.val)] {
			t.Fatalf("txn %d: put key %d, %d-byte value, repeated=%v", i, tx.put, len(tx.val), seen[string(tx.val)])
		}
		seen[string(tx.val)] = true
	}
}

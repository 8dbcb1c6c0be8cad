// Package latchfix is the golden fixture for the latchorder pass. It
// lives under testdata/ so ./... wildcards never build it; the test
// loads it by explicit path. Want comments mark the expected
// diagnostics.
package latchfix

import (
	"errors"

	"repro/internal/latch"
)

var errBoom = errors.New("boom")

type server struct {
	prot    latch.Latch    //dbvet:latch protection
	cw      latch.Latch    //dbvet:latch codeword
	slog    latch.Latch    //dbvet:latch syslog
	stripes *latch.Striped //dbvet:latch codeword
}

// Shape 1: direct inversion inside one function — the syslog latch is
// the last in the order, nothing may be acquired under it.
func (s *server) inverted() {
	s.slog.Lock()
	defer s.slog.Unlock()
	s.prot.Lock() // want "acquires the protection latch while the syslog latch is held"
	s.prot.Unlock()
}

// Shape 2: the same inversion split across two functions — only the
// callee's exported acquire summary can catch it.
func (s *server) outer() {
	s.cw.Lock()
	defer s.cw.Unlock()
	s.lockProt() // want "call to lockProt acquires the protection latch while the codeword latch is held"
}

func (s *server) lockProt() {
	s.prot.Lock()
	defer s.prot.Unlock()
}

// Shape 3: a Lock with an early return that skips the Unlock.
func (s *server) leaky(fail bool) error {
	s.prot.Lock() // want "not released on every return path"
	if fail {
		return errBoom
	}
	s.prot.Unlock()
	return nil
}

// Shape 4: an AcquireRange guard leaked on one path.
func (s *server) leakyGuard(exclusive bool) {
	g := s.stripes.AcquireRange(0, 4, exclusive) // want "guard from AcquireRange is not released on every return path"
	if exclusive {
		return
	}
	g.Release()
}

// ---- clean code: none of the following may be reported ----

// Acquisitions in the documented order, each released by defer.
func (s *server) ordered() {
	s.prot.Lock()
	defer s.prot.Unlock()
	s.cw.Lock()
	defer s.cw.Unlock()
	s.slog.Lock()
	defer s.slog.Unlock()
}

// A latch alias through a local still classifies, and the inner-first
// release order is fine.
func (s *server) aliased() {
	l := s.stripes.For(7)
	l.Lock()
	defer l.Unlock()
}

// A guard stored into a token transfers ownership to the token's
// releaser: not a leak at the acquisition site.
type token struct {
	g latch.MultiGuard
}

func (s *server) handoff() *token {
	g := s.stripes.AcquireRange(0, 2, true)
	return &token{g: g}
}

func (t *token) close() {
	t.g.Release()
}

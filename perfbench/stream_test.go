package main

import (
	"bytes"
	"testing"
)

type stream interface{ Next() (Request, error) }

func take(t *testing.T, s stream, n int) []Request {
	t.Helper()
	out := make([]Request, n)
	for i := range out {
		r, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = r
	}
	return out
}

func TestStreamsAreSeeded(t *testing.T) {
	for name, mk := range map[string]func(uint64) stream{
		"sweep-faster": func(s uint64) stream { return NewFasterStream(s) },
		"serve-mix":    func(s uint64) stream { return NewMixStream(s) },
	} {
		a, b, c := take(t, mk(7), 500), take(t, mk(7), 500), take(t, mk(8), 500)
		differ := false
		for i := range a {
			if !bytes.Equal(a[i].Body, b[i].Body) || a[i].Key != b[i].Key {
				t.Fatalf("%s: request %d differs between two streams of seed 7", name, i)
			}
			differ = differ || a[i].Key != c[i].Key
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

func TestFasterKeysDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for i, r := range take(t, NewFasterStream(1), 4000) {
		if seen[r.Key] {
			t.Fatalf("request %d repeats a key", i)
		}
		seen[r.Key] = true
		if want := fasterGraphs[i%len(fasterGraphs)]; r.Workload != want || r.K != fasterK || r.Seeds != fasterSeeds {
			t.Fatalf("request %d: %s k=%d seeds=%d", i, r.Workload, r.K, r.Seeds)
		}
	}
}

// Every spelling parses to its pool entry's key, spellings vary, and about
// one request in mixNewEvery introduces a new key.
func TestMixSpellingsCanonicalize(t *testing.T) {
	const n = 6000
	reqs := take(t, NewMixStream(3), n)
	keys := map[uint64]bool{}
	spellings := map[string]bool{}
	for i, r := range reqs {
		key, err := keyOf(r.Body)
		if err != nil {
			t.Fatalf("request %d %q: %v", i, r.Body, err)
		}
		if key != r.Key {
			t.Fatalf("request %d %q canonicalizes to %016x, pool key %016x", i, r.Body, key, r.Key)
		}
		keys[r.Key] = true
		spellings[string(r.Body)] = true
	}
	if len(spellings) < n*9/10 {
		t.Errorf("only %d distinct spellings in %d requests", len(spellings), n)
	}
	if got, lo, hi := len(keys), n/mixNewEvery*3/4, n/mixNewEvery*5/4; got < lo || got > hi {
		t.Errorf("%d distinct keys in %d requests, want %d..%d", got, n, lo, hi)
	}
	if len(keys) <= mixPool {
		t.Errorf("stream never left its first epoch (%d keys)", len(keys))
	}
}

func TestKeyLogHitRule(t *testing.T) {
	l := NewKeyLog()
	a, b := []byte("body-a"), []byte("body-b")
	if l.Sent(1) {
		t.Fatal("first request for a key is a hit")
	}
	// Sent while the first is still executing: coalesced, so a miss.
	if l.Sent(1) {
		t.Fatal("request sent before any response arrived is a hit")
	}
	if !l.Done(1, a) || !l.Done(1, a) {
		t.Fatal("identical responses reported as different")
	}
	if !l.Sent(1) {
		t.Fatal("request sent after a response arrived is a miss")
	}
	if l.Sent(2) {
		t.Fatal("another key's response made this key a hit")
	}
	if l.Done(1, b) {
		t.Fatal("a different body for a finished key was accepted")
	}
	l.Done(2, b)
	if keys := l.Keys(); len(keys) != 2 || keys[0] != 1 || keys[1] != 2 || !bytes.Equal(l.Body(1), a) {
		t.Fatalf("keys %v, body %q", keys, l.Body(1))
	}
}

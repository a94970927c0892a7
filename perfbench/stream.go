package main

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/graph"
	"repro/internal/serve"
)

// Request is one generated sweep request: the bytes sent and the cache
// key the service will file them under.
type Request struct {
	Body     []byte
	Key      uint64
	Workload string
	Seed     uint64 // base seed; row seeds are Seed..Seed+Seeds-1
	K        int
	Seeds    int
}

// field is one JSON member of a request body, value already encoded.
type field struct {
	name, value string
	optional    bool // equal to the service default, so it may be omitted
}

// requestFields lists the members of a Faster-Gathering maxmin FullSync
// request without faults or churn. The default-valued members are marked
// optional; the canonical request is the same with or without them.
func requestFields(workload string, k int, seed uint64, seeds, maxRounds int) []field {
	return []field{
		{name: "workload", value: strconv.Quote(workload)},
		{name: "algo", value: `"faster"`, optional: true},
		{name: "k", value: strconv.Itoa(k)},
		{name: "radius", value: "2", optional: true},
		{name: "placement", value: `"maxmin"`, optional: true},
		{name: "sched", value: `"full"`, optional: true},
		{name: "seed", value: strconv.FormatUint(seed, 10)},
		{name: "seeds", value: strconv.Itoa(seeds)},
		{name: "max_rounds", value: strconv.Itoa(maxRounds), optional: maxRounds == 0},
		{name: "faults", value: `"none"`, optional: true},
		{name: "churn", value: "0", optional: true},
	}
}

// plainBody writes every field in declaration order without whitespace.
func plainBody(fs []field) []byte {
	var b bytes.Buffer
	b.WriteByte('{')
	for i, f := range fs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%q:%s", f.name, f.value)
	}
	b.WriteByte('}')
	return b.Bytes()
}

// spaces are the insignificant whitespace runs a varied spelling draws.
var spaces = []string{"", "", " ", "  ", "\n", "\t", " \n  "}

// churnSpellings are equal JSON numbers for the default churn of zero.
var churnSpellings = []string{"0", "0.0", "0e0", "0E+0"}

// variedBody spells the request in a random member order, with random
// whitespace, and with each default-valued member kept or dropped at
// random. Every spelling parses to the same canonical request.
func variedBody(fs []field, rng *graph.RNG) []byte {
	kept := make([]field, 0, len(fs))
	for _, f := range fs {
		if f.optional && rng.Bool() {
			continue
		}
		if f.name == "churn" {
			f.value = churnSpellings[rng.Intn(len(churnSpellings))]
		}
		kept = append(kept, f)
	}
	for i := len(kept) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		kept[i], kept[j] = kept[j], kept[i]
	}
	ws := func() string { return spaces[rng.Intn(len(spaces))] }
	var b bytes.Buffer
	b.WriteString(ws() + "{")
	for i, f := range kept {
		if i > 0 {
			b.WriteString(ws() + ",")
		}
		fmt.Fprintf(&b, "%s%q%s:%s%s", ws(), f.name, ws(), ws(), f.value)
	}
	b.WriteString(ws() + "}" + ws())
	return b.Bytes()
}

// keyOf returns the service's cache key for a body, through the same
// parse-validate-canonicalize path the service runs.
func keyOf(body []byte) (uint64, error) {
	req, err := serve.ParseSweepRequest(body)
	if err != nil {
		return 0, err
	}
	return req.Key(), nil
}

// mix derives a request's base seed from the workload seed and request
// coordinates through splitmix64 rounds, so distinct coordinates give
// unrelated seeds.
func mix(seed uint64, coords ...uint64) uint64 {
	h := seed
	for _, c := range coords {
		h += (c + 1) * 0x9E3779B97F4A7C15
		h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
		h = (h ^ h>>27) * 0x94D049BB133111EB
		h ^= h >> 31
	}
	return h
}

// sweep-faster: Faster-Gathering in the many-robots regime, k = n/2+1 on
// 12-node graphs, 16 seeds a request with the algorithm-derived round cap.
var fasterGraphs = []string{"grid:3x4", "torus:3x4", "tree:12", "lollipop:12"}

const (
	fasterK     = 7
	fasterSeeds = 16
)

// FasterStream is the sweep-faster request stream: request i runs on
// fasterGraphs[i mod 4] with its own base seed, so every request is
// distinct and every one is a cache miss.
type FasterStream struct {
	seed uint64
	i    uint64
}

// NewFasterStream starts the stream of the given workload seed.
func NewFasterStream(seed uint64) *FasterStream { return &FasterStream{seed: seed} }

// Next returns the next request.
func (s *FasterStream) Next() (Request, error) {
	wl := fasterGraphs[s.i%uint64(len(fasterGraphs))]
	seed := mix(s.seed, s.i)
	s.i++
	body := plainBody(requestFields(wl, fasterK, seed, fasterSeeds, 0))
	key, err := keyOf(body)
	if err != nil {
		return Request{}, err
	}
	return Request{Body: body, Key: key, Workload: wl, Seed: seed, K: fasterK, Seeds: fasterSeeds}, nil
}

// serve-mix: capped sweeps on 256–384-node graphs, where setup (graph
// build, UXS certification, placement) dominates a miss.
var mixGraphs = []string{"rreg:256,4", "torus:16x16", "grid:16x16", "rreg:384,4"}

const (
	mixK         = 32
	mixSeeds     = 8
	mixMaxRounds = 256
	// mixPool is how many distinct requests one epoch of the stream uses.
	// Two epochs fit the service's default 256-entry cache, so a request
	// the stream repeats is never evicted before it repeats.
	mixPool = 120
	// mixNewEvery makes one request in mixNewEvery the first of a new key,
	// so about 95% of requests repeat a key.
	mixNewEvery = 20
)

// mixEntry is one distinct request of the serve-mix pool.
type mixEntry struct {
	fields []field
	req    Request // canonical spelling
}

// MixStream is the serve-mix request stream. It runs in epochs of mixPool
// distinct requests. Within an epoch, about one request in mixNewEvery
// introduces the next unused request of the pool; every other request
// repeats one already introduced, drawn uniformly. Each request is spelled
// anew: member order, whitespace and defaulted members vary, so repeats
// exercise the service's canonicalization. When the pool is used up, the
// next epoch starts with fresh seeds, which keeps misses flowing for as
// long as the stream runs and ages old keys out of the cache.
type MixStream struct {
	seed  uint64
	rng   *graph.RNG
	epoch uint64
	pool  []mixEntry // introduced entries of the current epoch
	next  int        // pool index of the next entry to introduce
}

// NewMixStream starts the stream of the given workload seed.
func NewMixStream(seed uint64) *MixStream {
	return &MixStream{seed: seed, rng: graph.NewRNG(mix(seed, 1<<32))}
}

// entry builds pool entry j of the current epoch.
func (s *MixStream) entry(j int) (mixEntry, error) {
	wl := mixGraphs[j%len(mixGraphs)]
	seed := mix(s.seed, s.epoch, uint64(j))
	fs := requestFields(wl, mixK, seed, mixSeeds, mixMaxRounds)
	body := plainBody(fs)
	key, err := keyOf(body)
	if err != nil {
		return mixEntry{}, err
	}
	return mixEntry{fields: fs, req: Request{Body: body, Key: key, Workload: wl,
		Seed: seed, K: mixK, Seeds: mixSeeds}}, nil
}

// Next returns the next request, spelled for sending.
func (s *MixStream) Next() (Request, error) {
	if s.next == mixPool {
		s.epoch++
		s.pool, s.next = s.pool[:0], 0
	}
	var e mixEntry
	if len(s.pool) == 0 || s.rng.Intn(mixNewEvery) == 0 {
		var err error
		if e, err = s.entry(s.next); err != nil {
			return Request{}, err
		}
		s.pool = append(s.pool, e)
		s.next++
	} else {
		e = s.pool[s.rng.Intn(len(s.pool))]
	}
	r := e.req
	r.Body = variedBody(e.fields, s.rng)
	return r, nil
}

// KeyLog classifies requests as hits or misses by the rule "a request is a
// hit when a response for its key had already been received when it was
// sent", and checks that every response for a key is byte-identical to the
// first. It is safe for concurrent clients.
type KeyLog struct {
	mu    sync.Mutex
	first map[uint64][]byte // first response body per key; present = finished
	order []uint64          // keys in the order their first response arrived
}

// NewKeyLog returns an empty log.
func NewKeyLog() *KeyLog { return &KeyLog{first: map[uint64][]byte{}} }

// Sent reports whether a request for key, sent now, is a hit.
func (l *KeyLog) Sent(key uint64) (hit bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	_, hit = l.first[key]
	return hit
}

// Done records a response for key and reports whether it matches the
// first response for that key; the first response always matches.
func (l *KeyLog) Done(key uint64, body []byte) (same bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev, ok := l.first[key]
	if !ok {
		l.first[key] = body
		l.order = append(l.order, key)
		return true
	}
	return bytes.Equal(prev, body)
}

// Keys returns the finished keys in the order their first response arrived.
func (l *KeyLog) Keys() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]uint64(nil), l.order...)
}

// Body returns the first response received for key.
func (l *KeyLog) Body(key uint64) []byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.first[key]
}

package sim

// Byzantine corruption: a Byzantine robot executes its algorithm honestly
// but *lies to everyone else* — the card it exposes to co-located
// observers and the messages it sends are deterministically corrupted
// from a per-robot splitmix64 stream. Identity stays truthful: in the
// Face-to-Face model a robot's presence and ID are physical observations
// of the meeting, so a Byzantine robot can fabricate state, group,
// leader, knowledge of n and termination claims, but not impersonate or
// hide (crashing is the separate fault class for disappearance).
//
// Every lie is a pure function of (stream seed, round, slot) — never of
// how many times the corruption is computed — which is what keeps
// Byzantine runs bit-identical across -parallel settings and replayable
// from a row seed. The engine calls these helpers at fixed pipeline
// points: CorruptCard in the snapshot sub-phase (after the engine stamps
// Done/Gathered, so the robot lies about termination too),
// CorruptMessage per composed message in the communication phase.

// splitmix64 is the SplitMix64 finalizer (same scrambler the runner's
// JobSeed uses): bijective, so distinct (round, slot) inputs never
// collide.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// byzWord draws the corruption word for one slot of one round of a
// Byzantine robot's stream. Slot 0 is the card; slot i+1 is the robot's
// i-th composed message of the round.
func byzWord(seed uint64, round int, slot uint64) uint64 {
	return splitmix64(seed ^ splitmix64(uint64(round+1)) ^ (slot+1)*0x9E3779B97F4A7C15)
}

// CorruptCard returns the lying card a Byzantine robot exposes this
// round: ID preserved, every other field fabricated within plausible
// ranges (small state codes, group/leader IDs down to -1, bounded n and
// aux claims, arbitrary termination flags).
func CorruptCard(c Card, seed uint64, round int) Card {
	w := byzWord(seed, round, 0)
	c.State = int(w & 7)
	c.GroupID = int((w>>3)&63) - 1
	c.Leader = int((w>>9)&63) - 1
	c.N = int((w >> 15) & 1023)
	c.Aux = int((w >> 25) & 1023)
	c.Done = w&(1<<40) != 0
	c.Gathered = w&(1<<41) != 0
	return c
}

// CorruptMessage returns the lying payload of a Byzantine robot's idx-th
// composed message this round: routing (From, To) preserved so delivery
// stays physical, kind and payload fabricated. The kind stays within the
// defined MsgKind range, so honest receivers dispatch on it normally and
// are misled rather than crashed at the engine layer (algorithms may
// still legitimately panic on impossible protocol states — that outcome
// is contained and reported like any algorithm crash).
func CorruptMessage(m Message, seed uint64, round, idx int) Message {
	w := byzWord(seed, round, uint64(idx)+1)
	m.Kind = MsgKind(w % uint64(MsgCustom+1))
	m.A = int((w >> 8) & 1023)
	m.B = int((w >> 18) & 1023)
	return m
}

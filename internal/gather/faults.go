package gather

// Seed-derivation salts shared by every execution surface that injects
// faults — the CLIs, the sweep service and the golden suite all derive
// their fault and churn streams the same way, which is what keeps a
// faulted run replayable across surfaces:
//
//   - the fault plan is per-run: plan seed = job seed ^ FaultSeedSalt,
//     so each seed of a sweep draws its own victims and crash rounds;
//   - churn is per-instance: overlay seed = instance seed ^
//     ChurnSeedSalt, because every row of a sweep over one instance
//     replays one pooled overlay and the edge weather must not depend on
//     which row is running.
const (
	FaultSeedSalt = 0xFA177C0DE5EED042
	ChurnSeedSalt = 0xC1124EEDC0FFEE17
)

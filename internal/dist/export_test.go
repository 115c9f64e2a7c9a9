package dist

import "time"

// WithLeasing returns cfg with the lease length, the per-unit attempt budget
// and the split depth set; a zero keeps the default (defaultLease,
// defaultMaxAttempts, sched.DefaultShardDepth). Tests use it for leases that
// expire in milliseconds, a poisoning after two attempts and a one-level
// split. A depth set here is what the manifest records.
func WithLeasing(cfg Config, lease time.Duration, maxAttempts, depth int) Config {
	cfg.lease, cfg.maxAttempts, cfg.depth = lease, maxAttempts, depth
	return cfg
}

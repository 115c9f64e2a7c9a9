package serve

import "time"

// WithHTTPLimits returns cfg with the HTTP endpoint's body cap and its
// read-header and idle timeouts set in place of the defaults (64 MiB, 10s,
// 2m), so that tests can reach each limit in milliseconds.
func WithHTTPLimits(cfg Config, maxBody int64, readHeader, idle time.Duration) Config {
	cfg.http = &httpLimits{maxBody: maxBody, readHeader: readHeader, idle: idle}
	return cfg
}

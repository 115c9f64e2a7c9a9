package collections

import (
	"fmt"

	"lineup/internal/sched"
	"lineup/internal/vsync"
)

// Lazy is the corrected lazy-initialization cell. The value factory has an
// observable side effect (it returns 100 + the number of times it has run),
// so executing it more than once — the seeded defect of the (Pre) version,
// root cause F — produces results no serial execution can justify. The
// corrected version publishes the value under a lock with a double-checked
// fast path (another benign race for the Section 5.6 comparison).
type Lazy struct {
	pre     bool
	mu      *vsync.Mutex // nil in the (Pre) form
	created *vsync.Cell[bool]
	value   *vsync.Cell[int]
	calls   *vsync.Cell[int]
}

// NewLazy constructs an uninitialized lazy cell.
func NewLazy(t *sched.Thread) *Lazy {
	return &Lazy{
		mu:      vsync.NewMutex(t, "Lazy.lock"),
		created: vsync.NewCell(t, "Lazy.created", false),
		value:   vsync.NewCell(t, "Lazy.value", 0),
		calls:   vsync.NewCell(t, "Lazy.calls", 0),
	}
}

// NewLazyPre constructs an uninitialized (Pre) lazy cell. It reproduces
// root cause F: the value factory is not protected by the initialization
// lock, so two racing Value calls both execute it. The factory has an
// observable side effect (each run yields a distinct value), so the two
// callers can return different values — and no serial execution ever runs
// the factory twice.
func NewLazyPre(t *sched.Thread) *Lazy {
	return &Lazy{
		pre:     true,
		created: vsync.NewCell(t, "Lazy.created", false),
		value:   vsync.NewCell(t, "Lazy.value", 0),
		calls:   vsync.NewCell(t, "Lazy.calls", 0),
	}
}

// factory is the observable value factory: each run returns a distinct
// value.
func (l *Lazy) factory(t *sched.Thread) int {
	n := l.calls.Load(t) + 1
	l.calls.Store(t, n)
	return 100 + n
}

// Value returns the lazily created value, running the factory at most once.
// BUG (root cause F, (Pre) only): the check-compute-publish sequence is not
// atomic, so two threads can both find the cell uncreated and both run the
// factory.
func (l *Lazy) Value(t *sched.Thread) int {
	if l.created.Load(t) { // benign race: double-checked fast path
		return l.value.Load(t)
	}
	if l.pre {
		v := l.factory(t) // BUG: factory may run more than once
		l.value.Store(t, v)
		l.created.Store(t, true)
		return v
	}
	l.mu.Lock(t)
	defer l.mu.Unlock(t)
	if !l.created.Load(t) {
		l.value.Store(t, l.factory(t))
		l.created.Store(t, true)
	}
	return l.value.Load(t)
}

// IsValueCreated reports whether the factory has run.
func (l *Lazy) IsValueCreated(t *sched.Thread) bool {
	return l.created.Load(t)
}

// ToString renders the cell like the .NET property: the value if created,
// a placeholder otherwise.
func (l *Lazy) ToString(t *sched.Thread) string {
	if !l.created.Load(t) {
		return "unset"
	}
	return fmt.Sprintf("%d", l.value.Load(t))
}

// Package chaos is a deterministic fault-injection layer for exercising the
// harness's recovery paths. Instrumented code declares tagged sites
// (Maybe(ctx, chaos.SiteCoreInfer)) at which a context-carried Injector can
// inject transient errors, panics, or delays at configured per-site rates.
//
// Design constraints, mirroring internal/obs:
//
//   - Callers that do not opt in pay nothing. The Injector travels through
//     context.Context (With/From); when absent, Maybe is an allocation-free
//     no-op, so instrumented code never branches on "is chaos on".
//   - Injection is deterministic. Every decision is a pure function of the
//     injector seed, the site, the enclosing scope's tag, and a scope-local
//     call counter — never of wall-clock time or goroutine scheduling. The
//     harness derives scope tags from its own seed streams, so the same
//     (-seed, -chaos, -chaos-seed) triple injects the same fault sequence
//     at any worker count.
//   - Faults are honest. An injected error returns through the normal error
//     path (wrapping ErrInjected), an injected panic unwinds like a real one
//     (carrying an InjectedPanic value so recovery sites can render it
//     deterministically), and a delay just sleeps — none of them corrupt
//     state, so everything observed downstream is the recovery machinery
//     itself.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tends/internal/obs"
)

// The injection sites wired through the repository. ParseSpec accepts only
// these names, so a typo in a -chaos spec fails fast instead of silently
// injecting nothing.
const (
	// SiteCellInfer fires once per (point, repeat, algorithm) task attempt,
	// between workload acquisition and the algorithm run.
	SiteCellInfer = "experiments.cell.infer"
	// SiteCheckpointAppend fires once per completed cell, just before its
	// record is appended to the checkpoint journal.
	SiteCheckpointAppend = "experiments.checkpoint.append"
	// SiteSimulate fires once per workload generation, at the head of
	// diffusion.SimulateContext. The workload is shared by every algorithm
	// at the cell, so one injected fault here fails all of them.
	SiteSimulate = "diffusion.simulate"
	// The per-algorithm inference entry points, one firing per call.
	SiteCoreInfer    = "core.infer"
	SiteNetRateInfer = "netrate.infer"
	SiteMulTreeInfer = "multree.infer"
	SiteNetInfInfer  = "netinf.infer"
	SiteLIFTInfer    = "lift.infer"

	// The streaming-service sites (internal/serve). Faults here exercise the
	// service's recovery machinery: a failed append or fsync fails the whole
	// un-acked batch group (clients retry), a decode fault rejects one ingest
	// request, and a recompute fault abandons one background inference cycle
	// (retried on the next wakeup). None of them can corrupt acked state.
	//
	// SiteWALAppend fires once per batch framed into the write-ahead log,
	// before any bytes are written.
	SiteWALAppend = "serve.wal.append"
	// SiteWALSync fires once per group fsync, before the Sync call.
	SiteWALSync = "serve.wal.fsync"
	// SiteIngestDecode fires once per ingest request, before the body is
	// decoded.
	SiteIngestDecode = "serve.ingest.decode"
	// SiteRecompute fires once per background recompute cycle, before the
	// node-local parent searches run.
	SiteRecompute = "serve.recompute"
)

// Sites returns every known injection site in declaration order.
func Sites() []string {
	return []string{
		SiteCellInfer,
		SiteCheckpointAppend,
		SiteSimulate,
		SiteCoreInfer,
		SiteNetRateInfer,
		SiteMulTreeInfer,
		SiteNetInfInfer,
		SiteLIFTInfer,
		SiteWALAppend,
		SiteWALSync,
		SiteIngestDecode,
		SiteRecompute,
	}
}

// ErrInjected is the sentinel wrapped by every injected error, so recovery
// accounting can tell injected faults from organic ones.
var ErrInjected = errors.New("chaos: injected fault")

// InjectedPanic is the value an injected panic unwinds with. Recovery sites
// that render recovered panics into error strings should detect it (via
// AsPanic) and format it without a stack trace, which would otherwise leak
// goroutine IDs into deterministic output.
type InjectedPanic struct {
	Site string
}

func (p InjectedPanic) String() string {
	return "chaos: injected panic at " + p.Site
}

// AsPanic reports whether a recovered panic value is an injected one.
func AsPanic(rec any) (InjectedPanic, bool) {
	p, ok := rec.(InjectedPanic)
	return p, ok
}

// Kind enumerates the fault kinds a site can inject.
type Kind int

const (
	// KindError makes Maybe return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Maybe panic with an InjectedPanic value.
	KindPanic
	// KindDelay makes Maybe sleep for the injector's delay, then continue.
	KindDelay
	numKinds
)

// String returns the spec-syntax name of the kind.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "error"
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule arms one (site, kind) pair at a rate in [0, 1].
type Rule struct {
	Site string
	Kind Kind
	Rate float64
}

// DefaultDelay is how long a KindDelay injection sleeps.
const DefaultDelay = time.Millisecond

// siteState is the armed configuration and accounting of one site.
type siteState struct {
	rules    []Rule                 // armed (kind, rate) pairs, spec order
	injected [numKinds]atomic.Int64 // faults actually injected, per kind
}

// Injector decides, deterministically, whether each Maybe call injects a
// fault. The nil Injector (and an Injector absent from the context) is a
// valid no-op. All methods are safe for concurrent use.
type Injector struct {
	seed  uint64
	delay time.Duration
	sites map[string]*siteState
	// global is the fallback decision scope for Maybe calls whose context
	// carries no explicit scope. Decisions drawn from it are deterministic
	// only under serial execution; the harness always attaches scopes.
	global scope
}

// New builds an Injector from a seed and the rules of a parsed spec (see
// ParseSpec). Rules must name known sites; New panics on unknown ones since
// ParseSpec and tests are the only constructors.
func New(seed int64, rules []Rule) *Injector {
	in := &Injector{
		seed:  splitmix64(uint64(seed) ^ 0xc4a0_5c40_a11d_ea15),
		delay: DefaultDelay,
		sites: make(map[string]*siteState),
	}
	known := make(map[string]bool)
	for _, s := range Sites() {
		known[s] = true
	}
	for _, r := range rules {
		if !known[r.Site] {
			panic("chaos: unknown site " + r.Site)
		}
		st := in.sites[r.Site]
		if st == nil {
			st = &siteState{}
			in.sites[r.Site] = st
		}
		st.rules = append(st.rules, r)
	}
	return in
}

// SetDelay overrides the sleep of KindDelay injections (DefaultDelay
// otherwise). Call before the injector is shared across goroutines.
func (in *Injector) SetDelay(d time.Duration) {
	if in != nil && d > 0 {
		in.delay = d
	}
}

// Injected returns the number of faults injected so far at the given site
// and kind; 0 on a nil Injector or an unarmed site.
func (in *Injector) Injected(site string, kind Kind) int64 {
	if in == nil {
		return 0
	}
	st := in.sites[site]
	if st == nil || kind < 0 || kind >= numKinds {
		return 0
	}
	return st.injected[kind].Load()
}

// TotalFaults returns the total injected errors and panics — the faults
// that fail work. Delays are excluded: they only slow it down.
func (in *Injector) TotalFaults() int64 {
	if in == nil {
		return 0
	}
	var total int64
	for _, st := range in.sites {
		total += st.injected[KindError].Load() + st.injected[KindPanic].Load()
	}
	return total
}

// TotalDelays returns the total injected delays.
func (in *Injector) TotalDelays() int64 {
	if in == nil {
		return 0
	}
	var total int64
	for _, st := range in.sites {
		total += st.injected[KindDelay].Load()
	}
	return total
}

// ctxKey carries the *Injector; scopeKey carries the decision *scope.
type ctxKey struct{}
type scopeKey struct{}

// With returns a context carrying the injector. A nil injector is allowed
// and equivalent to not attaching one.
func With(ctx context.Context, in *Injector) context.Context {
	if in == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, in)
}

// From returns the Injector carried by ctx, or nil when none is attached.
func From(ctx context.Context) *Injector {
	in, _ := ctx.Value(ctxKey{}).(*Injector)
	return in
}

// scope is one deterministic decision stream: a tag mixed into every draw
// plus a call counter that advances per evaluated rule.
type scope struct {
	tag uint64
	n   atomic.Uint64
}

// WithScope opens a fresh decision scope on ctx. The tag must be derived
// from seed streams (never from scheduling), so that the sequence of draws
// inside the scope is reproducible; use Tag to build one. When ctx carries
// no injector the context is returned unchanged, keeping the disabled path
// free.
func WithScope(ctx context.Context, tag uint64) context.Context {
	if From(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, &scope{tag: tag})
}

// Tag derives a scope tag from a seed and discriminating labels, chained
// through SplitMix64 like the harness's own seed streams.
func Tag(seed int64, labels ...string) uint64 {
	h := splitmix64(uint64(seed))
	for _, l := range labels {
		h = splitmix64(h ^ strHash(l))
	}
	return h
}

// Maybe evaluates the site's armed rules in spec order and injects at most
// one fault: a delay sleeps and evaluation continues; an error returns it;
// a panic unwinds. With no injector in ctx (or the site unarmed) it is an
// allocation-free no-op returning nil.
func Maybe(ctx context.Context, site string) error {
	in := From(ctx)
	if in == nil {
		return nil
	}
	st := in.sites[site]
	if st == nil {
		return nil
	}
	sc, _ := ctx.Value(scopeKey{}).(*scope)
	if sc == nil {
		sc = &in.global
	}
	for i := range st.rules {
		r := &st.rules[i]
		n := sc.n.Add(1) - 1
		if !in.decide(sc.tag, site, r.Kind, n, r.Rate) {
			continue
		}
		st.injected[r.Kind].Add(1)
		rec := obs.From(ctx)
		rec.Counter("chaos/injected/" + r.Kind.String()).Inc()
		rec.Counter("chaos/site/" + site).Inc()
		switch r.Kind {
		case KindDelay:
			time.Sleep(in.delay)
		case KindPanic:
			panic(InjectedPanic{Site: site})
		default:
			return fmt.Errorf("%w at %s", ErrInjected, site)
		}
	}
	return nil
}

// decide is the pure decision function: a SplitMix64 chain over the seed,
// scope tag, site, kind and call index, compared against the rate.
func (in *Injector) decide(tag uint64, site string, kind Kind, n uint64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(in.seed ^ tag)
	h = splitmix64(h ^ strHash(site))
	h = splitmix64(h ^ uint64(kind)<<32 ^ n)
	return float64(h>>11)*(1.0/(1<<53)) < rate
}

// splitmix64 is the SplitMix64 finalizer, the same mix the harness derives
// its seed streams from.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// strHash is FNV-1a over the string bytes, allocation-free.
func strHash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

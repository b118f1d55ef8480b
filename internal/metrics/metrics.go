// Package metrics is deltanet's stdlib-only observability core: atomic
// counters, gauges, and fixed-bucket latency histograms, registered by
// name in a Registry that renders the Prometheus text exposition format
// (version 0.0.4) for scraping from the dnserve admin endpoint.
//
// Everything on the hot path is a plain atomic word: Observe/Inc/Add
// never allocate, never take a lock, and the histogram's bucket storage
// is a pointer-free fixed array (pinned by TestPointerFree), so a
// process holding thousands of metrics adds
// nothing to GC scan work. Registration and rendering take the registry
// lock; both are off the update path.
//
// Values that already live elsewhere (the monitor's Stats counters, the
// engine's rule/atom counts) are exported with the *Func variants, which
// read the source of truth at scrape time instead of double-accounting.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is a named collection of metrics rendered together. The zero
// value is not usable; call NewRegistry.
//
// Lock order: mu → CounterVec.mu → HistogramVec.mu (rendering holds mu
// while visiting each vec's label space).
type Registry struct {
	//deltanet:lockrank 10
	mu     sync.RWMutex
	fams   []*family
	byName map[string]bool
}

// family is one registered metric: a # HELP / # TYPE header plus a
// sample renderer.
type family struct {
	name, help, typ string
	render          func(w *bufio.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

// add registers a family, panicking on a duplicate or invalid name —
// metric registration is program structure, not input, so a collision is
// a bug worth failing loudly on.
func (r *Registry) add(f *family) {
	if !validName(f.name) {
		panic("metrics: invalid metric name " + strconv.Quote(f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[f.name] {
		panic("metrics: duplicate metric name " + f.name)
	}
	r.byName[f.name] = true
	r.fams = append(r.fams, f)
}

// validName reports whether s is a legal Prometheus metric name:
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// WriteText renders every registered metric in Prometheus text
// exposition format. Rendering reads each metric atomically but the
// exposition as a whole is not a consistent snapshot — standard for
// Prometheus scrapes.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.RLock()
	fams := append([]*family(nil), r.fams...)
	r.mu.RUnlock()
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		f.render(bw)
	}
	return bw.Flush()
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// escapeLabel escapes a label value: backslash, newline, double quote.
func escapeLabel(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '\n':
			out = append(out, '\\', 'n')
		case '"':
			out = append(out, '\\', '"')
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers and returns a new counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.add(&family{name: name, help: help, typ: "counter", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, c.v.Load())
	}})
	return c
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for monotonic counts that already live elsewhere (monitor
// Stats, engine totals).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "counter", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	}})
}

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge registers and returns a new gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.add(&family{name: name, help: help, typ: "gauge", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %d\n", name, g.v.Load())
	}})
	return g
}

// GaugeFunc registers a gauge read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge", render: func(w *bufio.Writer) {
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
	}})
}

// CounterVec is a family of counters distinguished by one label (e.g.
// commands by verb). With creates or returns the counter for a value;
// the returned *Counter is cacheable and lock-free to update.
type CounterVec struct {
	name, label string
	//deltanet:lockrank 20
	mu sync.RWMutex
	m  map[string]*Counter
}

// With returns the counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c == nil {
		c = &Counter{}
		v.m[value] = c
	}
	return c
}

// CounterVec registers and returns a labelled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	v := &CounterVec{name: name, label: label, m: map[string]*Counter{}}
	r.add(&family{name: name, help: help, typ: "counter", render: func(w *bufio.Writer) {
		v.mu.RLock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		v.mu.RUnlock()
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, escapeLabel(k), v.With(k).v.Load())
		}
	}})
	return v
}

// HistogramVec is a family of histograms distinguished by one label
// (e.g. update-pipeline stages).
type HistogramVec struct {
	name, label string
	//deltanet:lockrank 30
	mu sync.RWMutex
	m  map[string]*Histogram
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.m[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.m[value]; h == nil {
		h = &Histogram{}
		v.m[value] = h
	}
	return h
}

// HistogramVec registers and returns a labelled histogram family.
func (r *Registry) HistogramVec(name, help, label string) *HistogramVec {
	v := &HistogramVec{name: name, label: label, m: map[string]*Histogram{}}
	r.add(&family{name: name, help: help, typ: "histogram", render: func(w *bufio.Writer) {
		v.mu.RLock()
		keys := make([]string, 0, len(v.m))
		for k := range v.m {
			keys = append(keys, k)
		}
		v.mu.RUnlock()
		sort.Strings(keys)
		for _, k := range keys {
			v.With(k).renderLabelled(w, name, fmt.Sprintf("%s=%q", v.label, escapeLabel(k)))
		}
	}})
	return v
}

// Histogram registers and returns a fixed-bucket latency histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.add(&family{name: name, help: help, typ: "histogram", render: func(w *bufio.Writer) {
		h.renderLabelled(w, name, "")
	}})
	return h
}

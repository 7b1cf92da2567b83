package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// measured is one reported metric with the number of samples behind it
// (0 for counts and ratios that are not sampled).
type measured struct {
	v    float64
	unit string
	n    int
	note string
}

// report collects one run's metrics and correctness verdicts.
type report struct {
	workload  string
	metrics   map[string]measured
	extra     []string // notes, printed as report lines
	checks    []string // failed correctness checks
	attempted int
	failed    int
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]measured{}}
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.metrics[name] = measured{v: v, unit: unit, n: n}
}

func (r *report) note(format string, args ...any) {
	r.extra = append(r.extra, fmt.Sprintf("%-13s note: ", r.workload)+fmt.Sprintf(format, args...))
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// fail records an error that ends the run as incorrect.
func (r *report) fail(err error) *report {
	r.checks = append(r.checks, err.Error())
	return r
}

func (r *report) correct() bool { return len(r.checks) == 0 }

// print writes the human-readable report lines and, last, the JSON
// result line with exactly the metrics the trace mode promises.
func (r *report) print(w io.Writer, cfg config) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(w, "%-13s seed=%d seconds=%d trace=%v\n", r.workload, cfg.seed, cfg.seconds, cfg.trace)
	line := func(name string, m measured) {
		suffix := fmt.Sprintf("n=%d", m.n)
		if m.note != "" {
			suffix = m.note
		}
		fmt.Fprintf(w, "%-13s %-34s %14.6g %-6s %s\n", r.workload, name, m.v, m.unit, suffix)
	}
	out := map[string]map[string]any{}
	inJSON := map[string]bool{}
	for _, d := range defs {
		m, ok := r.metrics[d.Name]
		if !ok || m.unit != d.Unit {
			r.checks = append(r.checks, "metric "+d.Name+" was not measured in "+d.Unit)
			continue
		}
		line(d.Name, m)
		out[d.Name] = map[string]any{"value": m.v, "unit": d.Unit}
		inJSON[d.Name] = true
	}
	// Every other metric: those of one workload or one layer only.
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		if !inJSON[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		line(name, r.metrics[name])
	}
	for _, line := range r.extra {
		fmt.Fprintln(w, line)
	}
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-13s %-34s %14.6g %-6s n=%d\n", r.workload, "error_rate", errRate, "ratio", r.attempted)
	for _, c := range r.checks {
		fmt.Fprintf(w, "%-13s CHECK FAILED: %s\n", r.workload, c)
	}
	attempted := r.attempted
	if attempted < 1 {
		attempted = 1
	}
	enc, _ := json.Marshal(map[string]any{ // plain maps of numbers and strings always marshal
		"correct": r.correct(), "attempted": attempted, "failed": r.failed, "metrics": out,
	})
	fmt.Fprintln(w, string(enc))
}

// latencies is a set of raw duration samples. Quantiles come from the
// raw samples, never from bucketed histograms.
type latencies []time.Duration

// quantile returns the q-quantile in milliseconds by linear
// interpolation between order statistics, and whether at least ten
// samples lie beyond it.
func (l latencies) quantile(q float64) (float64, bool) {
	if len(l) == 0 {
		return 0, false
	}
	s := append(latencies(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	v := float64(s[lo])*(1-frac) + float64(s[hi])*frac
	beyond := float64(len(s)) * (1 - q)
	return v / 1e6, beyond >= 10
}

// setQuantile reports a latency quantile in ms (or us), marking it when
// fewer than ten samples lie beyond it. Without samples it reports
// nothing: the run did not exercise that layer.
func (r *report) setQuantile(name string, l latencies, q float64, unit string) {
	if len(l) == 0 {
		return
	}
	v, ok := l.quantile(q)
	if unit == "us" {
		v *= 1000
	}
	m := measured{v: v, unit: unit, n: len(l)}
	if !ok {
		m.note = fmt.Sprintf("n=%d (fewer than 10 samples beyond the quantile)", len(l))
	}
	r.metrics[name] = m
}

// templateLatencies reports each template's client latency median and
// 90th percentile.
func templateLatencies(r *report, ps *phaseStats) {
	names := make([]string, 0, len(ps.byTmpl))
	for t := range ps.byTmpl {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		l := ps.byTmpl[t]
		p50, _ := l.quantile(0.5)
		r.set("latency_p50_ms."+t, p50, "ms", len(l))
		if p90, ok := l.quantile(0.9); ok {
			r.set("latency_p90_ms."+t, p90, "ms", len(l))
		}
	}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// relClose reports whether two doubles agree within 1e-9 relative.
func relClose(got, want float64) bool {
	if got == want {
		return true
	}
	d := math.Abs(got - want)
	return d <= 1e-9*math.Max(math.Abs(got), math.Abs(want))
}

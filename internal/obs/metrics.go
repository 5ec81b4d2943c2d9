package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics model: a Metrics registry holds named families
// (counter, gauge, histogram), each family holds one child per label
// combination. Families are registered once (registration is
// get-or-create, so N tenants wiring the same registry is fine) and
// children are resolved with With — callers on hot paths resolve
// their child once and then touch only atomics. Exposition is the
// Prometheus text format (version 0.0.4): deterministic ordering
// (families by name, children by label values), so scrapes diff
// cleanly and the conformance test can pin the inventory. A child is
// written only once something happened to it — a counter that is not
// 0, a histogram with an observation, a gauge that was Set — so a
// child resolved in advance for a hot path costs a scrape nothing
// until it is used.
//
// Cardinality discipline: every label is drawn from a bounded set —
// tenant names (bounded by created tenants), route patterns (a fixed
// enum per mux), HTTP status classes, pipeline stage names. Nothing
// request-derived (paths, filter values, document names) is ever a
// label value.

// Metric type names, as emitted on # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DefDurationBuckets are the request-latency histogram bounds
// (seconds): 500µs to 10s, roughly log-spaced.
var DefDurationBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// DefStageBuckets are the pipeline-stage / publish-latency histogram
// bounds (seconds): stages run milliseconds to minutes.
var DefStageBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Metrics is one registry of metric families.
type Metrics struct {
	mu  sync.RWMutex
	fam map[string]*Family
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{fam: map[string]*Family{}}
}

// Family is one named metric with a fixed label schema. All samples
// of a family share the type and label names; children differ only in
// label values.
type Family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.RWMutex
	children map[string]*Child
}

// register is the get-or-create behind Counter/Gauge/Histogram.
func (m *Metrics) register(name, help, typ string, buckets []float64, labels []string) *Family {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l))
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.fam[name]; ok {
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("obs: metric %s re-registered with different type or labels", name))
		}
		return f
	}
	f := &Family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: map[string]*Child{},
	}
	m.fam[name] = f
	return f
}

// Counter registers (or returns) a monotonically increasing family.
func (m *Metrics) Counter(name, help string, labels ...string) *Family {
	return m.register(name, help, TypeCounter, nil, labels)
}

// Gauge registers (or returns) a family of set-anywhere values.
func (m *Metrics) Gauge(name, help string, labels ...string) *Family {
	return m.register(name, help, TypeGauge, nil, labels)
}

// Histogram registers (or returns) a histogram family with the given
// upper bucket bounds (ascending; +Inf is implicit).
func (m *Metrics) Histogram(name, help string, buckets []float64, labels ...string) *Family {
	if len(buckets) == 0 {
		buckets = DefDurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: metric %s: buckets not ascending", name))
		}
	}
	return m.register(name, help, TypeHistogram, buckets, labels)
}

// Child is one labeled sample series. Counter/gauge children hold one
// atomic float; histogram children hold atomic per-bucket counts plus
// an atomic sum. All updates are lock-free.
type Child struct {
	values []string

	bits atomic.Uint64 // counter/gauge value (float64 bits)
	set  atomic.Bool   // Set was called: a gauge is written from then on

	// histogram state: counts[i] is the number of observations in
	// (buckets[i-1], buckets[i]]; the last slot is the +Inf bucket.
	// Exposition derives _count as the sum of the buckets, so the
	// +Inf cumulative value always equals _count by construction.
	counts  []atomic.Int64
	sumBits atomic.Uint64
	upper   []float64
}

// With returns the child for the given label values, creating it on
// first use. Resolve once outside hot loops: the returned child is
// updated with atomics only.
func (f *Family) With(values ...string) *Child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.RLock()
	c := f.children[key]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.children[key]; c != nil {
		return c
	}
	c = &Child{values: append([]string(nil), values...)}
	if f.typ == TypeHistogram {
		c.counts = make([]atomic.Int64, len(f.buckets)+1)
		c.upper = f.buckets
	}
	f.children[key] = c
	return c
}

// Forget drops every child, across all families, whose label named
// label has the value value, so a deleted series leaves the exposition
// instead of freezing in it. A child resolved earlier keeps working but
// is no longer exposed; the next With of its values starts a new series
// from zero.
func (m *Metrics) Forget(label, value string) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, f := range m.fam {
		i := slices.Index(f.labels, label)
		if i < 0 {
			continue
		}
		f.mu.Lock()
		for key, c := range f.children {
			if c.values[i] == value {
				delete(f.children, key)
			}
		}
		f.mu.Unlock()
	}
}

// addFloat atomically adds v to a float64 stored as bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Add increments a counter or gauge child by v.
func (c *Child) Add(v float64) { addFloat(&c.bits, v) }

// Inc increments by one.
func (c *Child) Inc() { c.Add(1) }

// Set stores v. Gauges use this freely; counter families whose value
// is sampled from an external cumulative source (the runtime's GC CPU
// seconds, the process's response-error counts) set the sampled value
// at scrape time. A gauge child is exposed once Set.
func (c *Child) Set(v float64) {
	c.bits.Store(math.Float64bits(v))
	c.set.Store(true)
}

// Value returns the current counter/gauge value.
func (c *Child) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Observe records one histogram observation.
func (c *Child) Observe(v float64) {
	i := 0
	for i < len(c.upper) && v > c.upper[i] {
		i++
	}
	c.counts[i].Add(1)
	addFloat(&c.sumBits, v)
}

// formatValue renders a sample value exactly as strconv's shortest
// round-trip representation.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if math.IsInf(v, -1) {
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelString renders {k="v",...} for the family's labels plus any
// extra pairs (histogram le), or "" when there are none.
func labelString(names, values []string, extraK, extraV string) string {
	var b strings.Builder
	sep := "{"
	for i, n := range names {
		fmt.Fprintf(&b, `%s%s="%s"`, sep, n, escapeLabel(values[i]))
		sep = ","
	}
	if extraK != "" {
		fmt.Fprintf(&b, `%s%s="%s"`, sep, extraK, escapeLabel(extraV))
		sep = ","
	}
	if sep == "{" {
		return ""
	}
	b.WriteString("}")
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered. It
// writes only observed children (see observed); a family with children
// but none observed prints only its HELP and TYPE.
func (m *Metrics) WritePrometheus(w io.Writer) error {
	m.mu.RLock()
	fams := make([]*Family, 0, len(m.fam))
	for _, f := range m.fam {
		fams = append(fams, f)
	}
	m.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	bw := bufio.NewWriter(w)
	for _, f := range fams {
		f.mu.RLock()
		children := make([]*Child, 0, len(f.children))
		for _, c := range f.children {
			children = append(children, c)
		}
		f.mu.RUnlock()
		if len(children) == 0 {
			continue // a family with no samples would be HELP/TYPE noise
		}
		sort.Slice(children, func(i, j int) bool {
			return strings.Join(children[i].values, "\xff") < strings.Join(children[j].values, "\xff")
		})
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, c := range children {
			if !c.observed(f.typ) {
				continue
			}
			if f.typ != TypeHistogram {
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labels, c.values, "", ""), formatValue(c.Value()))
				continue
			}
			// Cumulative buckets are summed while reading the atomic
			// slots in order, so the emitted series is monotone and the
			// +Inf bucket equals _count even under concurrent Observe.
			cum := int64(0)
			for i := range c.counts {
				cum += c.counts[i].Load()
				le := "+Inf"
				if i < len(c.upper) {
					le = formatValue(c.upper[i])
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labels, c.values, "le", le), cum)
			}
			sum := math.Float64frombits(c.sumBits.Load())
			fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labels, c.values, "", ""), formatValue(sum))
			fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labels, c.values, "", ""), cum)
		}
	}
	return bw.Flush()
}

// observed reports whether the child of a family of type typ has
// anything to show: a counter that is not 0, a histogram with an
// observation, a gauge that was Set.
func (c *Child) observed(typ string) bool {
	switch typ {
	case TypeCounter:
		return c.Value() != 0
	case TypeGauge:
		return c.set.Load()
	}
	for i := range c.counts {
		if c.counts[i].Load() != 0 {
			return true
		}
	}
	return false
}

// ---- Exposition parsing (the conformance tests' and tooling's view).

// Sample is one parsed exposition sample.
type Sample struct {
	// Name is the sample's full name (families' histogram samples
	// carry their _bucket/_sum/_count suffix).
	Name string
	// Labels are the sample's label pairs (including histogram le).
	Labels map[string]string
	// Value is the sample value.
	Value float64
}

// ParsedFamily is one family's declared name and type plus its
// samples.
type ParsedFamily struct {
	Name    string
	Type    string
	Samples []Sample
}

var sampleLineRe = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*)?\})? ([^ ]+)$`)

func unescapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\"`, `"`)
	v = strings.ReplaceAll(v, `\n`, "\n")
	return strings.ReplaceAll(v, `\\`, `\`)
}

// ParseExposition strictly parses Prometheus text-format output:
// every line must be a well-formed HELP, TYPE or sample line, every
// sample must belong to a family whose TYPE was declared first,
// histogram samples must use the _bucket/_sum/_count suffixes, and no
// series (name + label set) may repeat. It exists so tests can assert
// format conformance without a third-party dependency, and returns
// the families in exposition order.
func ParseExposition(r io.Reader) ([]ParsedFamily, error) {
	var fams []ParsedFamily
	byName := map[string]*ParsedFamily{}
	seenSeries := map[string]bool{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			if byName[name] != nil {
				return nil, fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
			}
			fams = append(fams, ParsedFamily{Name: name})
			byName[name] = &fams[len(fams)-1]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 || !metricNameRe.MatchString(parts[0]) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			switch parts[1] {
			case TypeCounter, TypeGauge, TypeHistogram:
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, parts[1])
			}
			f := byName[parts[0]]
			if f == nil {
				return nil, fmt.Errorf("line %d: TYPE for %s before its HELP", lineNo, parts[0])
			}
			if f.Type != "" {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, parts[0])
			}
			f.Type = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			return nil, fmt.Errorf("line %d: unexpected comment %q", lineNo, line)
		}
		mch := sampleLineRe.FindStringSubmatch(line)
		if mch == nil {
			return nil, fmt.Errorf("line %d: malformed sample line %q", lineNo, line)
		}
		name, labelBody, valStr := mch[1], mch[3], mch[5]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sample value %q", lineNo, valStr)
		}
		labels := map[string]string{}
		if labelBody != "" {
			for _, pair := range splitLabelPairs(labelBody) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					return nil, fmt.Errorf("line %d: bad label pair %q", lineNo, pair)
				}
				labels[k] = unescapeLabel(strings.Trim(v, `"`))
			}
		}
		fam := byName[name]
		base := name
		if fam == nil {
			// Histogram samples attach to their base family.
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b, ok := strings.CutSuffix(name, suf); ok && byName[b] != nil && byName[b].Type == TypeHistogram {
					fam, base = byName[b], b
					break
				}
			}
		}
		if fam == nil {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", lineNo, name)
		}
		if fam.Type == "" {
			return nil, fmt.Errorf("line %d: sample for %s before its TYPE", lineNo, base)
		}
		if fam.Type == TypeHistogram && base == name {
			return nil, fmt.Errorf("line %d: histogram %s exposed without _bucket/_sum/_count suffix", lineNo, name)
		}
		series := line[:strings.LastIndex(line, " ")]
		if seenSeries[series] {
			return nil, fmt.Errorf("line %d: duplicate series %q", lineNo, series)
		}
		seenSeries[series] = true
		fam.Samples = append(fam.Samples, Sample{Name: name, Labels: labels, Value: val})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "" {
			return nil, fmt.Errorf("family %s has HELP but no TYPE", fams[i].Name)
		}
	}
	return fams, nil
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

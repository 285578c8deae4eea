// Prometheus text exposition (format version 0.0.4) for the registry, so
// the miraged `/v1/metrics?format=prometheus` endpoint can be scraped by a
// stock Prometheus/OpenMetrics collector — the future load harness and the
// fleet coordinator both consume this format. Stdlib-only, like the rest of
// the package.

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promName sanitizes a dotted registry name into a legal Prometheus metric
// name: [a-zA-Z_:][a-zA-Z0-9_:]*. Dots (the registry's namespace separator)
// and any other illegal rune become '_'; a leading digit gains a '_' prefix.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, c := range name {
		legal := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if i == 0 && c >= '0' && c <= '9' {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if legal {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects (shortest round-trip
// representation; +Inf/-Inf/NaN spelled out).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as cumulative
// `_bucket{le="..."}` series plus `_sum` and `_count`. Names are sanitized
// (dots become underscores) and emitted in sorted order so the output is
// deterministic; if two registry names sanitize to the same metric name,
// only the first (in sorted registry-name order) is emitted — duplicate
// series are a protocol violation a scraper may reject whole.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	seen := make(map[string]bool)
	claim := func(name string) bool {
		if seen[name] {
			return false
		}
		seen[name] = true
		return true
	}
	var err error
	emit := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		if !claim(pn) {
			continue
		}
		emit("# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		if !claim(pn) {
			continue
		}
		emit("# TYPE %s gauge\n%s %s\n", pn, pn, promFloat(s.Gauges[name]))
	}
	for _, name := range sortedKeys(s.Histograms) {
		pn := promName(name)
		if !claim(pn) {
			continue
		}
		h := s.Histograms[name]
		emit("# TYPE %s histogram\n", pn)
		var cum int64
		for _, b := range h.Buckets {
			cum += b.Count
			emit("%s_bucket{le=\"%d\"} %d\n", pn, b.Le, cum)
		}
		// Observations clamp into the top bucket, so +Inf equals the total.
		emit("%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		emit("%s_sum %d\n%s_count %d\n", pn, h.Sum, pn, h.Count)
	}
	return err
}

// sortedKeys returns the map's keys sorted, for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// WritePrometheus renders the registry's current snapshot in the Prometheus
// text exposition format, the same snapshot WriteMetrics encodes as JSON.
// Safe on a nil receiver (writes nothing).
func (t *Telemetry) WritePrometheus(w io.Writer) error {
	if t == nil {
		return nil
	}
	return t.Registry.Snapshot().WritePrometheus(w)
}

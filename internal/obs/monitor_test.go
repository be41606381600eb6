package obs

import (
	"strings"
	"testing"
)

// TestPrometheusLabelEscaping is the regression test for the exposition
// format bug: label values used to be rendered with Go's %q, which
// emits \xNN/\uNNNN escapes the Prometheus text format does not define,
// so any non-ASCII query name produced an unparseable exposition. Only
// backslash, double quote, and newline may be escaped; everything else
// must pass through byte-for-byte.
func TestPrometheusLabelEscaping(t *testing.T) {
	r := sampleReport()
	r.Nodes[0].Query = "q-héavy \"x\\y\nz"
	out := r.Prometheus()
	if want := `query="q-héavy \"x\\y\nz"`; !strings.Contains(out, want) {
		t.Errorf("rendering missing properly escaped label %s:\n%s", want, out)
	}
	for _, bad := range []string{`\x`, `\u00`, "h\\xc3"} {
		if strings.Contains(out, bad) {
			t.Errorf("rendering contains Go-quoting artifact %q:\n%s", bad, out)
		}
	}
	// Every sample line must still be parseable: name{labels} value or
	// name value, with balanced quotes outside escapes.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if open := strings.IndexByte(line, '{'); open >= 0 {
			close := strings.LastIndexByte(line, '}')
			if close < open {
				t.Fatalf("malformed sample line: %s", line)
			}
			quotes := 0
			body := line[open+1 : close]
			for i := 0; i < len(body); i++ {
				switch body[i] {
				case '\\':
					i++ // skip the escaped byte
				case '"':
					quotes++
				}
			}
			if quotes%2 != 0 {
				t.Errorf("unbalanced quotes in labels of: %s", line)
			}
		}
	}
}

// TestPrometheusWindowFamily: a monitored report exposes the windowed
// load series as qap_host_window_* gauges labeled by host and window.
func TestPrometheusWindowFamily(t *testing.T) {
	r := sampleReport()
	r.LoadWindowSec = 10
	r.LoadSeries = []LoadWindow{
		{Window: 0, StartSec: 0, EndSec: 10, Hosts: []HostWindow{
			{Host: 0, CPUUnits: 12.5, NetTuplesIn: 3, NetBytesIn: 96, Tuples: 40},
			{Host: 1, Tuples: 7},
		}},
		{Window: 1, StartSec: 10, EndSec: 20, Hosts: []HostWindow{
			{Host: 0, NetBytesIn: 320, Tuples: 11},
		}},
	}
	out := r.Prometheus()
	for _, want := range []string{
		"qap_host_window_seconds 10",
		`qap_host_window_net_bytes_in{host="0",window="0"} 96`,
		`qap_host_window_net_bytes_in{host="0",window="1"} 320`,
		`qap_host_window_net_tuples_in{host="0",window="0"} 3`,
		`qap_host_window_cpu_units{host="0",window="0"} 12.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in rendering:\n%s", want, out)
		}
	}
	// Unmonitored reports must not grow empty families.
	if plain := sampleReport().Prometheus(); strings.Contains(plain, "qap_host_window") {
		t.Error("window family emitted without monitoring enabled")
	}
}

// TestMaxHostNetBytesPerSec covers the window-rate helper, including
// the degenerate empty and zero-length windows.
func TestMaxHostNetBytesPerSec(t *testing.T) {
	w := LoadWindow{StartSec: 10, EndSec: 20, Hosts: []HostWindow{
		{Host: 0, NetBytesIn: 100}, {Host: 1, NetBytesIn: 450}, {Host: 2, NetBytesIn: 0},
	}}
	if got := w.MaxHostNetBytesPerSec(); got != 45 {
		t.Errorf("rate = %v, want 45", got)
	}
	if got := (LoadWindow{StartSec: 5, EndSec: 5}).MaxHostNetBytesPerSec(); got != 0 {
		t.Errorf("zero-length window rate = %v, want 0", got)
	}
	if got := (LoadWindow{StartSec: 0, EndSec: 10}).MaxHostNetBytesPerSec(); got != 0 {
		t.Errorf("empty window rate = %v, want 0", got)
	}
}

// TestLoadWindowMaxHost names the host MaxHostNetBytesPerSec reads: the
// lowest-numbered of those tied at the peak, none in a window without
// network ingress.
func TestLoadWindowMaxHost(t *testing.T) {
	for _, tc := range []struct {
		name  string
		w     LoadWindow
		host  int
		bytes float64
	}{
		{"peak", LoadWindow{StartSec: 10, EndSec: 20, Hosts: []HostWindow{
			{Host: 0, NetBytesIn: 100}, {Host: 1, NetBytesIn: 450}, {Host: 2, NetBytesIn: 0}}}, 1, 45},
		{"tie", LoadWindow{StartSec: 0, EndSec: 5, Hosts: []HostWindow{
			{Host: 0, NetBytesIn: 10}, {Host: 1, NetBytesIn: 50}, {Host: 2, NetBytesIn: 50}}}, 1, 10},
		{"idle", LoadWindow{StartSec: 0, EndSec: 5, Hosts: []HostWindow{{Host: 0}, {Host: 1}}}, -1, 0},
		{"zero-length", LoadWindow{StartSec: 5, EndSec: 5, Hosts: []HostWindow{{Host: 0, NetBytesIn: 9}}}, 0, 0},
	} {
		if host, rate := tc.w.MaxHost(); host != tc.host || rate != tc.bytes {
			t.Errorf("%s: MaxHost = %d, %v; want %d, %v", tc.name, host, rate, tc.host, tc.bytes)
		}
	}
}

// TestFirstLoadViolation covers the trigger scan: warmup skipping,
// factor inflation (and the factor<=0 fallback to 1), and the
// first-hit-wins contract.
func TestFirstLoadViolation(t *testing.T) {
	mk := func(win int, bps int64) LoadWindow {
		return LoadWindow{Window: win, StartSec: uint64(win) * 10, EndSec: uint64(win+1) * 10,
			Hosts: []HostWindow{{Host: 0, NetBytesIn: bps * 10}}}
	}
	series := []LoadWindow{mk(0, 900), mk(1, 400), mk(2, 650), mk(3, 800)}

	// Bound 500, factor 1.2 -> threshold 600: window 0 is warmup, so
	// the first violation is window 2 at 650 B/s.
	if win, rate := FirstLoadViolation(series, 500, 1.2, 1); win != 2 || rate != 650 {
		t.Errorf("violation = (%d, %v), want (2, 650)", win, rate)
	}
	// factor <= 0 behaves as 1.
	if win, _ := FirstLoadViolation(series, 500, 0, 1); win != 2 {
		t.Errorf("factor 0: window %d, want 2", win)
	}
	// Warmup larger than the series: nothing fires.
	if win, rate := FirstLoadViolation(series, 500, 1.2, 10); win != -1 || rate != 0 {
		t.Errorf("all-warmup scan = (%d, %v), want (-1, 0)", win, rate)
	}
	// Everything inside the bound: nothing fires.
	if win, _ := FirstLoadViolation(series, 1000, 1.5, 0); win != -1 {
		t.Errorf("in-bound scan fired at window %d", win)
	}
	if win, _ := FirstLoadViolation(nil, 0, 1, 0); win != -1 {
		t.Errorf("empty series fired at window %d", win)
	}
}

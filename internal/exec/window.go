package exec

import (
	"encoding/binary"
	"sort"

	"qap/internal/sqlval"
)

// SlidingWindowConfig configures pane-based sliding-window merging
// (Li et al.'s "no pane, no gain" evaluation, which the paper's
// Section 3.1 adopts): the upstream aggregation emits per-pane partial
// rows (groups ++ partial aggregates, exactly the sub-aggregate
// layout); this operator merges, for every group, the partials of the
// last Panes panes and emits one result per pane slide.
type SlidingWindowConfig struct {
	// GroupCols is the number of leading group columns in each input
	// row (the remainder are partial aggregate values).
	GroupCols int
	// EpochIdx is the group column holding the pane id.
	EpochIdx int
	// PaneOfWM translates a base-time watermark into the lowest pane
	// id any future row can carry.
	PaneOfWM func(uint64) sqlval.Value
	// Panes is the window size in panes; results cover panes
	// (p-Panes, p] for every closing pane p.
	Panes uint64
	// Mergers create the accumulator merging one partial column
	// across panes (and across hosts, when partials arrive from
	// several sub-aggregates); Mergers[i] consumes input column
	// GroupCols+i.
	Mergers []AccumFactory
	// Having filters merged windows; it sees groups ++ merged values.
	Having EvalFunc
	// Post computes the output row from groups ++ merged values; nil
	// emits them unchanged.
	Post []EvalFunc
	Out  Consumer
	// OnPaneFlush, when set, observes every closed pane: pane is the
	// closing pane id, groups the distinct groups with data in the
	// window, rows the result rows emitted after HAVING. Purely
	// observational — it runs after the rows are pushed.
	OnPaneFlush func(pane uint64, groups, rows int)
}

type paneGroup struct {
	key  string
	vals []sqlval.Value // group values, pane column included
	pane uint64
	rows []Tuple // partial rows for this (group, pane)
}

// SlidingWindow merges per-pane partial aggregates into sliding-window
// results. Rows arrive keyed by (group, pane); when the watermark
// closes pane p, every group with any data in window (p-Panes, p]
// emits a merged row whose pane column is p.
type SlidingWindow struct {
	cfg SlidingWindowConfig
	// panes maps (group-without-pane key, pane) to buffered partials.
	panes map[string]*paneGroup
	// next is the next pane to close; set lazily from the first data.
	next    uint64
	nextSet bool
	anyPane bool
	minPane uint64
	maxPane uint64
	lastWM  uint64
	wmSeen  bool
	flushed bool
	// valsBuf is Push's reused group-column scratch; a persistent
	// copy is made only when a new pane group is created.
	valsBuf []sqlval.Value
}

// NewSlidingWindow builds the operator.
func NewSlidingWindow(cfg SlidingWindowConfig) *SlidingWindow {
	if cfg.Panes == 0 {
		cfg.Panes = 1
	}
	return &SlidingWindow{cfg: cfg, panes: make(map[string]*paneGroup)}
}

// groupKeyNoPane builds the group identity with the pane column
// blanked, so one group's panes collate.
func (w *SlidingWindow) groupKeyNoPane(vals []sqlval.Value) string {
	masked := make([]sqlval.Value, len(vals))
	copy(masked, vals)
	masked[w.cfg.EpochIdx] = sqlval.Null
	return Key(masked)
}

// Push implements Consumer.
//
//qap:hot
func (w *SlidingWindow) Push(t Tuple) {
	scratch := w.valsBuf
	if cap(scratch) < w.cfg.GroupCols {
		scratch = make([]sqlval.Value, w.cfg.GroupCols) //qap:allow hotalloc -- scratch grown once per operator
	}
	scratch = scratch[:w.cfg.GroupCols]
	copy(scratch, t[:w.cfg.GroupCols])
	w.valsBuf = scratch
	pane, ok := scratch[w.cfg.EpochIdx].AsUint()
	if !ok {
		return
	}
	key := w.groupKeyNoPane(scratch)
	pk := key + "\x00" + string(binary.BigEndian.AppendUint64(nil, pane))
	pg, exists := w.panes[pk]
	if !exists {
		vals := make([]sqlval.Value, w.cfg.GroupCols) //qap:allow hotalloc -- one persistent copy per new pane group
		copy(vals, scratch)
		pg = &paneGroup{key: key, vals: vals, pane: pane} //qap:allow hotalloc -- one per new pane group, not per tuple
		w.panes[pk] = pg
	}
	pg.rows = append(pg.rows, t)
	if !w.anyPane || pane < w.minPane {
		w.minPane = pane
	}
	if !w.anyPane || pane > w.maxPane {
		w.maxPane = pane
	}
	w.anyPane = true
}

// Advance implements Consumer: emit windows for every pane strictly
// below the watermark's pane.
func (w *SlidingWindow) Advance(wm uint64) {
	if w.wmSeen && wm <= w.lastWM {
		return
	}
	w.lastWM, w.wmSeen = wm, true
	if w.cfg.PaneOfWM == nil {
		w.Out().Advance(wm)
		return
	}
	boundary, ok := w.cfg.PaneOfWM(wm).AsUint()
	if ok && boundary > 0 {
		w.emitThrough(boundary - 1)
	}
	w.Out().Advance(wm)
}

// Flush implements Consumer: the remaining windows close, through the
// last pane of the stream — not of this instance's share of it. One of
// several partitioned instances may have seen no row of the stream's
// last pane, yet its groups' windows still cover it; the last watermark,
// which every instance receives alike, says which pane that is.
func (w *SlidingWindow) Flush() {
	if w.flushed {
		return
	}
	w.flushed = true
	if w.anyPane {
		last := w.maxPane
		if w.wmSeen && w.cfg.PaneOfWM != nil {
			if p, ok := w.cfg.PaneOfWM(w.lastWM).AsUint(); ok && p > last {
				last = p
			}
		}
		w.emitThrough(last)
	}
	w.Out().Flush()
}

// Out returns the downstream consumer.
func (w *SlidingWindow) Out() Consumer { return w.cfg.Out }

// BufferedPanes reports live (group, pane) buffers, for eviction tests.
func (w *SlidingWindow) BufferedPanes() int { return len(w.panes) }

// emitThrough closes every pane up to and including last.
func (w *SlidingWindow) emitThrough(last uint64) {
	if !w.anyPane {
		return
	}
	if !w.nextSet {
		w.next, w.nextSet = w.minPane, true
	}
	for ; w.next <= last; w.next++ {
		w.emitPane(w.next)
		w.evict()
	}
}

// emitPane emits the window ending at pane p for every group with data
// in (p-Panes, p].
func (w *SlidingWindow) emitPane(p uint64) {
	lo := uint64(0)
	if w.cfg.Panes <= p {
		lo = p - w.cfg.Panes + 1
	}
	type windowState struct {
		vals []sqlval.Value
		accs []Accum
		any  bool
	}
	groups := make(map[string]*windowState)
	var order []string
	for _, pg := range w.panes { //qap:allow maprange -- emission order collected then sorted below
		if pg.pane < lo || pg.pane > p {
			continue
		}
		ws, ok := groups[pg.key]
		if !ok {
			vals := make([]sqlval.Value, len(pg.vals))
			copy(vals, pg.vals)
			vals[w.cfg.EpochIdx] = sqlval.Uint(p) // window end pane
			ws = &windowState{vals: vals, accs: make([]Accum, len(w.cfg.Mergers))}
			for i, m := range w.cfg.Mergers {
				ws.accs[i] = m()
			}
			groups[pg.key] = ws
			order = append(order, pg.key)
		}
		for _, row := range pg.rows {
			for i := range w.cfg.Mergers {
				ws.accs[i].Add(row[w.cfg.GroupCols+i])
			}
			ws.any = true
		}
	}
	sort.Strings(order)
	pushed := 0
	for _, key := range order {
		ws := groups[key]
		if !ws.any {
			continue
		}
		row := make(Tuple, 0, len(ws.vals)+len(ws.accs))
		row = append(row, ws.vals...)
		for _, a := range ws.accs {
			row = append(row, a.Result())
		}
		if w.cfg.Having != nil && !w.cfg.Having(row).AsBool() {
			continue
		}
		if w.cfg.Post == nil {
			w.cfg.Out.Push(row)
			pushed++
			continue
		}
		out := make(Tuple, len(w.cfg.Post))
		for i, f := range w.cfg.Post {
			out[i] = f(row)
		}
		w.cfg.Out.Push(out)
		pushed++
	}
	if w.cfg.OnPaneFlush != nil && len(order) > 0 {
		w.cfg.OnPaneFlush(p, len(order), pushed)
	}
}

// evict drops pane buffers no window ending at pane >= next can
// reference: those with pane + Panes <= next.
func (w *SlidingWindow) evict() {
	for k, pg := range w.panes { //qap:allow maprange -- delete-only eviction
		if pg.pane+w.cfg.Panes <= w.next {
			delete(w.panes, k)
		}
	}
}

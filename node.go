package qap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"qap/internal/cluster"
	"qap/internal/obs/trace"
	"qap/internal/sqlval"
)

// ServeNode serves one leaf host of a live deployment as a TCP node on
// addr, for running hosts as separate OS processes (cmd/qap-node). The
// node takes its deployment from the splitter: the first Hello carries
// the splitter's source texts and DeployConfig, which the node runs
// through Load and Deploy, so nothing but host and address is set on
// this side. A deployment that does not compile, or compiles to
// another fingerprint than the splitter's, fails the node for good.
// live tunes the node's transport (Timeout, AcceptGrace, Faults); its
// Nodes is not read. ready, when non-nil, receives the bound listen
// address before serving. Blocks until the host's work is complete and
// acknowledged.
func ServeNode(host int, addr string, live LiveOptions, ready func(addr string)) error {
	return cluster.ServeNode(host, addr, live, func(spec []byte) (*cluster.Runner, error) {
		sys, cfg, err := decodeSpec(spec)
		if err != nil {
			return nil, err
		}
		cfg.Engine = EngineLive
		dep, err := sys.Deploy(cfg)
		if err != nil {
			return nil, err
		}
		return dep.newRunner()
	}, ready)
}

// deploySpec is the deployment a splitter ships its remote nodes
// (cluster.RunConfig.Deploy): the source texts and every DeployConfig
// field that shapes the plan or its results, under the same names.
// Node-local settings — Workers, Live and DriveTimeout — stay each
// process's own, and CollectStats the splitter's: a node counts the
// same either way. Sets travel as text, parameter values tagged by kind.
type deploySpec struct {
	Schema, Queries          string
	Hosts, PartitionsPerHost int
	Partitioning             string
	PerStream                map[string]string
	DisablePartialAgg        bool
	PartialScope             Scope
	Costs                    CostConfig
	Params                   map[string]specValue
	BatchSize                int
	LoadWindowSec            int
	Trace                    *RunTraceConfig
}

// specValue is a parameter value: its sqlval kind and its text.
type specValue struct {
	Kind, Text string
}

// encodeSpec encodes the deployment for its remote nodes.
func (d *Deployment) encodeSpec() ([]byte, error) {
	cfg := d.cfg
	if d.sys.ddl == "" || d.sys.queries == "" {
		return nil, errors.New("qap: a live deployment with remote nodes needs a System built by Load: the nodes compile its source texts")
	}
	s := deploySpec{
		Schema: d.sys.ddl, Queries: d.sys.queries,
		Hosts: cfg.Hosts, PartitionsPerHost: cfg.PartitionsPerHost,
		Partitioning:      setText(cfg.Partitioning),
		DisablePartialAgg: cfg.DisablePartialAgg,
		PartialScope:      cfg.PartialScope,
		Costs:             cfg.Costs,
		BatchSize:         cfg.BatchSize,
		LoadWindowSec:     cfg.LoadWindowSec,
		Trace:             cfg.Trace,
	}
	if cfg.PerStream != nil {
		s.PerStream = make(map[string]string, len(cfg.PerStream))
		for name, set := range cfg.PerStream { //qap:allow maprange -- map-to-map copy; encoding/json sorts the keys
			s.PerStream[name] = setText(set)
		}
	}
	if len(cfg.Params) > 0 {
		s.Params = make(map[string]specValue, len(cfg.Params))
		for name, v := range cfg.Params { //qap:allow maprange -- map-to-map copy; encoding/json sorts the keys
			s.Params[name] = valueSpec(v)
		}
	}
	b, err := json.Marshal(&s)
	if err != nil {
		return nil, fmt.Errorf("qap: encoding the deployment for the remote nodes: %w", err)
	}
	return b, nil
}

// setText renders a set the way ParseSet reads it back: its elements,
// comma separated, without the parentheses Set.String adds.
func setText(s Set) string {
	parts := make([]string, len(s))
	for i, e := range s {
		parts[i] = e.String()
	}
	return strings.Join(parts, ", ")
}

// valueSpec and parseValue carry a parameter value exactly, floats as
// their shortest round-tripping text.
func valueSpec(v Value) specValue {
	sv := specValue{Kind: v.Kind().String()}
	switch v.Kind() {
	case sqlval.KindUint:
		u, _ := v.AsUint()
		sv.Text = strconv.FormatUint(u, 10)
	case sqlval.KindInt:
		i, _ := v.AsInt()
		sv.Text = strconv.FormatInt(i, 10)
	case sqlval.KindFloat:
		f, _ := v.AsFloat()
		sv.Text = strconv.FormatFloat(f, 'g', -1, 64)
	case sqlval.KindBool:
		sv.Text = strconv.FormatBool(v.AsBool())
	case sqlval.KindString:
		sv.Text, _ = v.AsString()
	}
	return sv
}

func parseValue(sv specValue) (Value, error) {
	switch sv.Kind {
	case sqlval.KindNull.String():
		if sv.Text != "" {
			return Value{}, fmt.Errorf("null value with text %q", sv.Text)
		}
		return sqlval.Null, nil
	case sqlval.KindUint.String():
		u, err := strconv.ParseUint(sv.Text, 10, 64)
		return sqlval.Uint(u), err
	case sqlval.KindInt.String():
		i, err := strconv.ParseInt(sv.Text, 10, 64)
		return sqlval.Int(i), err
	case sqlval.KindFloat.String():
		f, err := strconv.ParseFloat(sv.Text, 64)
		return sqlval.Float(f), err
	case sqlval.KindBool.String():
		b, err := strconv.ParseBool(sv.Text)
		return sqlval.Bool(b), err
	case sqlval.KindString.String():
		return sqlval.Str(sv.Text), nil
	}
	return Value{}, fmt.Errorf("unknown kind %q", sv.Kind)
}

// decodeSpec decodes a deployment off the wire into the System and
// DeployConfig it was encoded from. It is strict, because the spec is a
// peer's input: an unknown field, trailing bytes or a bad value refuse
// it, with an error naming the field or the offset.
func decodeSpec(b []byte) (*System, DeployConfig, error) {
	var cfg DeployConfig
	if len(b) == 0 {
		return nil, cfg, errors.New("qap: deploy spec: the splitter's hello carries no deployment")
	}
	var s deploySpec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, cfg, fmt.Errorf("qap: deploy spec at offset %d: %w", dec.InputOffset(), err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, cfg, fmt.Errorf("qap: deploy spec: trailing data at offset %d", dec.InputOffset())
	}
	bad := func(field string, format string, args ...any) error {
		return fmt.Errorf("qap: deploy spec: field %q: %s", field, fmt.Sprintf(format, args...))
	}
	type bound struct {
		field     string
		v, lo, hi int
	}
	bounds := []bound{
		{"Hosts", s.Hosts, 1, math.MaxInt},
		{"PartitionsPerHost", s.PartitionsPerHost, 1, math.MaxInt},
		{"PartialScope", int(s.PartialScope), int(ScopePartition), int(ScopeHost)},
		{"BatchSize", s.BatchSize, 0, math.MaxInt},
		{"LoadWindowSec", s.LoadWindowSec, 0, math.MaxInt},
	}
	if t := s.Trace; t != nil {
		bounds = append(bounds,
			bound{"Trace.Mode", int(t.Mode), int(trace.ModeFull), int(trace.ModeRing)},
			bound{"Trace.RingSize", t.RingSize, 0, math.MaxInt})
	}
	for _, bd := range bounds {
		if bd.v < bd.lo || bd.v > bd.hi {
			return nil, cfg, bad(bd.field, "%d is outside [%d, %d]", bd.v, bd.lo, bd.hi)
		}
	}
	cfg = DeployConfig{
		Hosts: s.Hosts, PartitionsPerHost: s.PartitionsPerHost,
		DisablePartialAgg: s.DisablePartialAgg,
		PartialScope:      s.PartialScope,
		Costs:             s.Costs,
		BatchSize:         s.BatchSize,
		LoadWindowSec:     s.LoadWindowSec,
		Trace:             s.Trace,
	}
	var err error
	if cfg.Partitioning, err = ParseSet(s.Partitioning); err != nil {
		return nil, cfg, bad("Partitioning", "%v", err)
	}
	if s.PerStream != nil {
		cfg.PerStream = make(StreamSets, len(s.PerStream))
		for _, name := range sortedNames(s.PerStream) {
			if cfg.PerStream[name], err = ParseSet(s.PerStream[name]); err != nil {
				return nil, cfg, bad("PerStream", "stream %q: %v", name, err)
			}
		}
	}
	if s.Params != nil {
		cfg.Params = make(map[string]Value, len(s.Params))
		for _, name := range sortedNames(s.Params) {
			if cfg.Params[name], err = parseValue(s.Params[name]); err != nil {
				return nil, cfg, bad("Params", "%q: %v", name, err)
			}
		}
	}
	sys, field, err := load(s.Schema, s.Queries)
	if err != nil {
		return nil, cfg, bad(field, "%v", err)
	}
	return sys, cfg, nil
}

// sortedNames returns a map's keys in order, so the first bad entry a
// refusal names is the same on every run.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m { //qap:allow maprange -- names collected then sorted below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

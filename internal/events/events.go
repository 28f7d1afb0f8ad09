// Package events implements the ClusterWorX event engine (paper §5.2):
// administrators "set thresholds on any value monitored"; when a threshold
// is exceeded the engine "automatically triggers an action" — node power
// down, reboot, halt, or an administrator-defined plug-in — and optionally
// notifies. "If a node is fixed by an administrator but fails again later,
// the event re-fires automatically, without administrative interventions."
package events

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clusterworx/internal/consolidate"
	"clusterworx/internal/flight"
	"clusterworx/internal/telemetry"
)

// Self-monitoring series for the event engine. Action latency uses the
// wall clock — e.now is virtual in simulation and would time actions at
// zero — because the interesting number is how long a power-off RPC or
// an administrator plug-in actually stalls the evaluation goroutine.
// fltj is the process-wide flight journal; firings are cold path, so
// the interning Sym calls here are fine.
var fltj = flight.Default()

var (
	mObservations = telemetry.Default().Counter("cwx_events_observations_total")
	mRulesEval    = telemetry.Default().Counter("cwx_events_rules_evaluated_total")
	mFired        = telemetry.Default().Counter("cwx_events_fired_total")
	mCleared      = telemetry.Default().Counter("cwx_events_cleared_total")
	mActionNs     = telemetry.Default().Histogram("cwx_events_action_ns")
)

// Op is a threshold comparison.
type Op uint8

// Comparison operators.
const (
	GT Op = iota
	GE
	LT
	LE
	EQ
	NE
)

// String renders the operator.
func (o Op) String() string {
	switch o {
	case GT:
		return ">"
	case GE:
		return ">="
	case LT:
		return "<"
	case LE:
		return "<="
	case EQ:
		return "=="
	case NE:
		return "!="
	default:
		return "?"
	}
}

// eval applies the comparison.
func (o Op) eval(v, threshold float64) bool {
	switch o {
	case GT:
		return v > threshold
	case GE:
		return v >= threshold
	case LT:
		return v < threshold
	case LE:
		return v <= threshold
	case EQ:
		return v == threshold
	case NE:
		return v != threshold
	default:
		return false
	}
}

// ActionType is the built-in corrective action palette.
type ActionType uint8

// Actions. The default actions the paper names are power down and reboot.
const (
	ActNone ActionType = iota
	ActPowerOff
	ActPowerCycle
	ActReset
	ActHalt
	ActPlugin
)

// String names the action.
func (a ActionType) String() string {
	switch a {
	case ActNone:
		return "none"
	case ActPowerOff:
		return "power-off"
	case ActPowerCycle:
		return "power-cycle"
	case ActReset:
		return "reset"
	case ActHalt:
		return "halt"
	case ActPlugin:
		return "plugin"
	default:
		return "?"
	}
}

// Rule is one administrator-defined event.
type Rule struct {
	Name      string
	Metric    string // monitor value name, e.g. "hw.temp.cpu"
	Op        Op
	Threshold float64
	// Sustain is how many consecutive violating samples trigger the event
	// (default 1). It debounces noisy monitors.
	Sustain int
	Action  ActionType
	// Plugin runs when Action is ActPlugin; it receives the node name.
	// "Customizable action can be created using shell scripts, perl
	// scripts, symbolic links, programs, and more" — here, any Go func.
	Plugin func(node string) error
	// Notify selects administrator notification on trigger.
	Notify bool
}

// String renders the rule in the rule-file style.
func (r Rule) String() string {
	return fmt.Sprintf("%s: %s %s %g -> %s", r.Name, r.Metric, r.Op, r.Threshold, r.Action)
}

// Actuator executes corrective actions against a node; the management
// server backs it with the node's ICE Box.
type Actuator interface {
	PowerOff(node string) error
	PowerCycle(node string) error
	Reset(node string) error
	Halt(node string) error
}

// Notifier receives trigger/clear edges; notify.Notifier implements the
// paper's smart e-mail semantics on top of them. trace is the flight
// trace id of the frame that fired the rule, 0 when it was not sampled.
type Notifier interface {
	EventTriggered(rule Rule, node string, value float64, actionErr error, trace uint64)
	EventCleared(rule Rule, node string)
}

// Firing is one log entry of a triggered event.
type Firing struct {
	At        time.Duration
	Rule      string
	Node      string
	Value     float64
	Action    ActionType
	ActionErr error
}

// Engine evaluates rules against observed node samples.
type Engine struct {
	// nrules mirrors len(rules) so the per-update observation hot path
	// can skip the engine lock entirely when no rules are installed —
	// with hundreds of agents reporting concurrently, even an
	// uncontended-looking global mutex becomes a serialization point.
	nrules   atomic.Int32
	mu       sync.Mutex //cwx:lockrank engine 70
	rules    map[string]*Rule
	order    []string
	state    map[string]map[string]*nodeState // rule -> node -> state
	actuator Actuator
	notifier Notifier
	now      func() time.Duration
	log      []Firing
	logCap   int
}

type nodeState struct {
	violations int
	triggered  bool
}

// New returns an engine. actuator and notifier may be nil (evaluation
// only). now supplies timestamps for the firing log.
func New(actuator Actuator, notifier Notifier, now func() time.Duration) *Engine {
	if now == nil {
		now = func() time.Duration { return 0 }
	}
	return &Engine{
		rules:    make(map[string]*Rule),
		state:    make(map[string]map[string]*nodeState),
		actuator: actuator,
		notifier: notifier,
		now:      now,
		logCap:   1024,
	}
}

// AddRule installs or replaces a rule. Replacing resets its per-node
// state.
func (e *Engine) AddRule(r Rule) error {
	if r.Name == "" || r.Metric == "" {
		return fmt.Errorf("events: rule needs name and metric")
	}
	if r.Sustain < 1 {
		r.Sustain = 1
	}
	if r.Action == ActPlugin && r.Plugin == nil {
		return fmt.Errorf("events: rule %s: plugin action without plugin", r.Name)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.rules[r.Name]; !exists {
		e.order = append(e.order, r.Name)
	}
	e.rules[r.Name] = &r
	e.state[r.Name] = make(map[string]*nodeState)
	e.nrules.Store(int32(len(e.rules)))
	return nil
}

// RemoveRule deletes a rule.
func (e *Engine) RemoveRule(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.rules[name]; !ok {
		return
	}
	delete(e.rules, name)
	delete(e.state, name)
	e.nrules.Store(int32(len(e.rules)))
	for i, n := range e.order {
		if n == name {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
}

// HasRules reports whether any rules are installed, without taking the
// engine lock. The server's ingest path uses it to skip building an
// observation snapshot when evaluation would be a no-op.
func (e *Engine) HasRules() bool { return e.nrules.Load() > 0 }

// Rules returns the installed rules in insertion order.
func (e *Engine) Rules() []Rule {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Rule, 0, len(e.order))
	for _, name := range e.order {
		out = append(out, *e.rules[name])
	}
	return out
}

// Observe evaluates every rule against a node's sample batch and returns
// the firings it produced. Actions and notifications run inline.
func (e *Engine) Observe(node string, values []consolidate.Value) []Firing {
	byName := make(map[string]float64, len(values))
	for _, v := range values {
		if !v.IsText {
			byName[v.Name] = v.Num
		}
	}
	return e.ObserveMap(node, byName)
}

// ObserveMap is Observe for pre-indexed samples. Values absent from the
// map leave rule state untouched (a metric that stopped arriving is not a
// violation — pair it with a connectivity rule).
func (e *Engine) ObserveMap(node string, values map[string]float64) []Firing {
	return e.ObserveTraced(node, values, 0)
}

// ObserveTraced is ObserveMap for the samples of one frame whose flight
// trace id is trace (0: not sampled). The id stamps the event-fired
// journal records and reaches the notifier, so a firing joins the tree
// of the frame that caused it and of no other.
func (e *Engine) ObserveTraced(node string, values map[string]float64, trace uint64) []Firing {
	if e.nrules.Load() == 0 {
		return nil
	}
	type pending struct {
		rule Rule
		val  float64
		kind byte // 't' trigger, 'c' clear
	}
	var work []pending
	var evaluated int64

	e.mu.Lock()
	for _, name := range e.order {
		r := e.rules[name]
		v, ok := values[r.Metric]
		if !ok {
			continue
		}
		evaluated++
		st := e.state[name][node]
		if st == nil {
			st = &nodeState{}
			e.state[name][node] = st
		}
		if r.Op.eval(v, r.Threshold) {
			st.violations++
			if !st.triggered && st.violations >= r.Sustain {
				st.triggered = true
				work = append(work, pending{rule: *r, val: v, kind: 't'})
			}
		} else {
			st.violations = 0
			if st.triggered {
				// Condition no longer holds: the node was fixed (or healed).
				// Re-arm so a later violation re-fires automatically.
				st.triggered = false
				work = append(work, pending{rule: *r, val: v, kind: 'c'})
			}
		}
	}
	e.mu.Unlock()
	mObservations.Inc()
	mRulesEval.Add(evaluated)

	var fired []Firing
	for _, w := range work {
		if w.kind == 'c' {
			mCleared.Inc()
			if e.notifier != nil {
				e.notifier.EventCleared(w.rule, node)
			}
			continue
		}
		var act0 time.Time
		if telemetry.On() {
			act0 = time.Now() //cwx:allow clockdet -- action latency measures real actuator cost; firings are stamped with e.now
		}
		actionErr := e.act(w.rule, node)
		if telemetry.On() {
			mActionNs.Observe(int64(time.Since(act0))) //cwx:allow clockdet -- closes the wall-clock action span
		}
		mFired.Inc()
		f := Firing{
			At:        e.now(),
			Rule:      w.rule.Name,
			Node:      node,
			Value:     w.val,
			Action:    w.rule.Action,
			ActionErr: actionErr,
		}
		e.mu.Lock()
		e.log = append(e.log, f)
		if len(e.log) > e.logCap {
			e.log = e.log[len(e.log)-e.logCap:]
		}
		e.mu.Unlock()
		fltj.Append(int(flight.Salt(node)), flight.Entry{
			Kind:   flight.KindEventFired,
			Node:   fltj.Sym(node),
			Detail: fltj.Sym(w.rule.Name),
			Trace:  trace,
			TimeNs: int64(f.At),
			A:      int64(w.val),
		})
		if w.rule.Notify && e.notifier != nil {
			e.notifier.EventTriggered(w.rule, node, w.val, actionErr, trace)
		}
		fired = append(fired, f)
	}
	return fired
}

// act runs the rule's corrective action.
func (e *Engine) act(r Rule, node string) error {
	if r.Action == ActNone {
		return nil
	}
	if r.Action == ActPlugin {
		return r.Plugin(node)
	}
	if e.actuator == nil {
		return fmt.Errorf("events: no actuator for %s", r.Action)
	}
	switch r.Action {
	case ActPowerOff:
		return e.actuator.PowerOff(node)
	case ActPowerCycle:
		return e.actuator.PowerCycle(node)
	case ActReset:
		return e.actuator.Reset(node)
	case ActHalt:
		return e.actuator.Halt(node)
	default:
		return fmt.Errorf("events: unknown action %v", r.Action)
	}
}

// Triggered reports whether a rule is currently triggered on a node.
func (e *Engine) Triggered(rule, node string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.state[rule][node]
	return st != nil && st.triggered
}

// TriggeredNodes returns the nodes a rule is currently triggered on,
// sorted.
func (e *Engine) TriggeredNodes(rule string) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for node, st := range e.state[rule] {
		if st.triggered {
			out = append(out, node)
		}
	}
	sort.Strings(out)
	return out
}

// Log returns the firing history, oldest first.
func (e *Engine) Log() []Firing {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Firing(nil), e.log...)
}

package events

import (
	"errors"
	"fmt"
	"testing"

	"clusterworx/internal/consolidate"
)

// fakeActuator records actions and optionally fails.
type fakeActuator struct {
	calls []string
	fail  error
}

func (a *fakeActuator) record(op, node string) error {
	a.calls = append(a.calls, op+":"+node)
	return a.fail
}

func (a *fakeActuator) PowerOff(n string) error   { return a.record("poweroff", n) }
func (a *fakeActuator) PowerCycle(n string) error { return a.record("cycle", n) }
func (a *fakeActuator) Reset(n string) error      { return a.record("reset", n) }
func (a *fakeActuator) Halt(n string) error       { return a.record("halt", n) }

// fakeNotifier records trigger/clear edges.
type fakeNotifier struct {
	triggers []string
	clears   []string
}

func (n *fakeNotifier) EventTriggered(r Rule, node string, v float64, actionErr error, _ uint64) {
	n.triggers = append(n.triggers, fmt.Sprintf("%s@%s=%g", r.Name, node, v))
}

func (n *fakeNotifier) EventCleared(r Rule, node string) {
	n.clears = append(n.clears, r.Name+"@"+node)
}

func obs(e *Engine, node string, metric string, v float64) []Firing {
	return e.ObserveMap(node, map[string]float64{metric: v})
}

func TestOpEval(t *testing.T) {
	cases := []struct {
		op   Op
		v, t float64
		want bool
	}{
		{GT, 5, 4, true}, {GT, 4, 4, false},
		{GE, 4, 4, true}, {GE, 3, 4, false},
		{LT, 3, 4, true}, {LT, 4, 4, false},
		{LE, 4, 4, true}, {LE, 5, 4, false},
		{EQ, 4, 4, true}, {EQ, 5, 4, false},
		{NE, 5, 4, true}, {NE, 4, 4, false},
		{Op(99), 1, 1, false},
	}
	for _, c := range cases {
		if got := c.op.eval(c.v, c.t); got != c.want {
			t.Errorf("%v.eval(%g,%g) = %v", c.op, c.v, c.t, got)
		}
	}
	if GT.String() != ">" || Op(99).String() != "?" {
		t.Error("Op.String wrong")
	}
	for a, s := range map[ActionType]string{ActNone: "none", ActPowerOff: "power-off",
		ActPowerCycle: "power-cycle", ActReset: "reset", ActHalt: "halt", ActPlugin: "plugin", ActionType(99): "?"} {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), s)
		}
	}
}

func TestRuleValidation(t *testing.T) {
	e := New(nil, nil, nil)
	if err := e.AddRule(Rule{}); err == nil {
		t.Fatal("empty rule accepted")
	}
	if err := e.AddRule(Rule{Name: "x", Metric: "m", Action: ActPlugin}); err == nil {
		t.Fatal("plugin action without plugin accepted")
	}
	if err := e.AddRule(Rule{Name: "x", Metric: "m"}); err != nil {
		t.Fatal(err)
	}
	if got := e.Rules(); len(got) != 1 || got[0].Sustain != 1 {
		t.Fatalf("Rules = %+v", got)
	}
}

func TestThresholdTriggersAction(t *testing.T) {
	act := &fakeActuator{}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "overheat", Metric: "hw.temp.cpu", Op: GT, Threshold: 85, Action: ActPowerOff})
	if fired := obs(e, "n1", "hw.temp.cpu", 70); len(fired) != 0 {
		t.Fatal("fired below threshold")
	}
	fired := obs(e, "n1", "hw.temp.cpu", 90)
	if len(fired) != 1 {
		t.Fatalf("firings = %v", fired)
	}
	f := fired[0]
	if f.Rule != "overheat" || f.Node != "n1" || f.Value != 90 || f.Action != ActPowerOff || f.ActionErr != nil {
		t.Fatalf("firing = %+v", f)
	}
	if len(act.calls) != 1 || act.calls[0] != "poweroff:n1" {
		t.Fatalf("actuator calls = %v", act.calls)
	}
}

func TestNoRetriggerWhileActive(t *testing.T) {
	act := &fakeActuator{}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85, Action: ActPowerOff})
	obs(e, "n1", "t", 90)
	obs(e, "n1", "t", 95)
	obs(e, "n1", "t", 99)
	if len(act.calls) != 1 {
		t.Fatalf("action ran %d times while continuously violated", len(act.calls))
	}
	if !e.Triggered("hot", "n1") {
		t.Fatal("not triggered")
	}
}

func TestRefireAfterFix(t *testing.T) {
	act := &fakeActuator{}
	nt := &fakeNotifier{}
	e := New(act, nt, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85, Action: ActReset, Notify: true})
	obs(e, "n1", "t", 90) // fires
	obs(e, "n1", "t", 60) // fixed: clears
	obs(e, "n1", "t", 91) // fails again: re-fires automatically
	if len(act.calls) != 2 {
		t.Fatalf("actions = %v", act.calls)
	}
	if len(nt.triggers) != 2 || len(nt.clears) != 1 {
		t.Fatalf("triggers %v clears %v", nt.triggers, nt.clears)
	}
}

func TestSustainDebounce(t *testing.T) {
	act := &fakeActuator{}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "load", Metric: "load.1", Op: GT, Threshold: 10, Sustain: 3, Action: ActHalt})
	obs(e, "n1", "load.1", 12)
	obs(e, "n1", "load.1", 12)
	if len(act.calls) != 0 {
		t.Fatal("fired before sustain count")
	}
	obs(e, "n1", "load.1", 5) // violation streak broken
	obs(e, "n1", "load.1", 12)
	obs(e, "n1", "load.1", 12)
	if len(act.calls) != 0 {
		t.Fatal("streak reset ignored")
	}
	obs(e, "n1", "load.1", 12)
	if len(act.calls) != 1 {
		t.Fatalf("calls = %v", act.calls)
	}
}

func TestPerNodeIndependence(t *testing.T) {
	act := &fakeActuator{}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85, Action: ActPowerOff})
	obs(e, "n1", "t", 90)
	obs(e, "n2", "t", 70)
	obs(e, "n3", "t", 99)
	if len(act.calls) != 2 {
		t.Fatalf("calls = %v", act.calls)
	}
	nodes := e.TriggeredNodes("hot")
	if len(nodes) != 2 || nodes[0] != "n1" || nodes[1] != "n3" {
		t.Fatalf("triggered nodes = %v", nodes)
	}
	if e.Triggered("hot", "n2") {
		t.Fatal("n2 wrongly triggered")
	}
}

func TestPluginAction(t *testing.T) {
	var got string
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "custom", Metric: "m", Op: LT, Threshold: 1, Action: ActPlugin,
		Plugin: func(node string) error { got = node; return nil }})
	obs(e, "n9", "m", 0)
	if got != "n9" {
		t.Fatalf("plugin got %q", got)
	}
}

func TestActionErrorRecorded(t *testing.T) {
	act := &fakeActuator{fail: errors.New("icebox unreachable")}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85, Action: ActPowerOff})
	fired := obs(e, "n1", "t", 90)
	if len(fired) != 1 || fired[0].ActionErr == nil {
		t.Fatalf("fired = %+v", fired)
	}
}

func TestNoActuatorError(t *testing.T) {
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85, Action: ActPowerOff})
	fired := obs(e, "n1", "t", 90)
	if len(fired) != 1 || fired[0].ActionErr == nil {
		t.Fatal("missing actuator did not surface as action error")
	}
}

func TestMissingMetricIgnored(t *testing.T) {
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85})
	obs(e, "n1", "t", 90)
	// Metric absent: state unchanged, still triggered, no clear edge.
	fired := e.ObserveMap("n1", map[string]float64{"other": 1})
	if len(fired) != 0 || !e.Triggered("hot", "n1") {
		t.Fatal("absent metric mutated rule state")
	}
}

func TestObserveValues(t *testing.T) {
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "full", Metric: "mem.used.pct", Op: GE, Threshold: 95})
	vals := []consolidate.Value{
		consolidate.NumValue("mem.used.pct", consolidate.Dynamic, 97),
		consolidate.TextValue("host.name", consolidate.Static, "n1"),
	}
	if fired := e.Observe("n1", vals); len(fired) != 1 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRemoveRule(t *testing.T) {
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "a", Metric: "m", Op: GT, Threshold: 1})
	e.AddRule(Rule{Name: "b", Metric: "m", Op: GT, Threshold: 2})
	e.RemoveRule("a")
	e.RemoveRule("ghost")
	rules := e.Rules()
	if len(rules) != 1 || rules[0].Name != "b" {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestFiringLog(t *testing.T) {
	e := New(nil, nil, nil)
	e.AddRule(Rule{Name: "hot", Metric: "t", Op: GT, Threshold: 85})
	for i := 0; i < 5; i++ {
		obs(e, "n1", "t", 90)
		obs(e, "n1", "t", 50)
	}
	log := e.Log()
	if len(log) != 5 {
		t.Fatalf("log = %d entries", len(log))
	}
	if log[0].Rule != "hot" || log[0].Node != "n1" {
		t.Fatalf("log[0] = %+v", log[0])
	}
	if s := e.Rules()[0].String(); s != "hot: t > 85 -> none" {
		t.Fatalf("Rule.String = %q", s)
	}
}

func TestMultipleRulesSameMetric(t *testing.T) {
	act := &fakeActuator{}
	e := New(act, nil, nil)
	e.AddRule(Rule{Name: "warn", Metric: "t", Op: GT, Threshold: 70, Action: ActNone})
	e.AddRule(Rule{Name: "crit", Metric: "t", Op: GT, Threshold: 90, Action: ActPowerOff})
	fired := obs(e, "n1", "t", 80)
	if len(fired) != 1 || fired[0].Rule != "warn" {
		t.Fatalf("fired = %v", fired)
	}
	fired = obs(e, "n1", "t", 95)
	if len(fired) != 1 || fired[0].Rule != "crit" {
		t.Fatalf("fired = %v", fired)
	}
	if len(act.calls) != 1 {
		t.Fatalf("calls = %v", act.calls)
	}
}

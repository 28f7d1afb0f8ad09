package notify

import (
	"errors"
	"strings"
	"testing"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/events"
)

func rule(name string) events.Rule {
	return events.Rule{
		Name: name, Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85,
		Action: events.ActPowerOff, Notify: true,
	}
}

func newNotifier(clk *clock.Clock, cfg Config) (*Notifier, *Recording) {
	rec := &Recording{}
	return New(clk, rec, cfg), rec
}

func TestSingleTriggerSingleMail(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{Cluster: "llnl", Admin: "ops@llnl.gov"})
	n.EventTriggered(rule("overheat"), "node007", 91.5, nil, 0)
	if rec.Count() != 1 {
		t.Fatalf("mails = %d", rec.Count())
	}
	m := rec.Messages()[0]
	if m.To != "ops@llnl.gov" {
		t.Fatalf("to = %q", m.To)
	}
	for _, want := range []string{"llnl", "overheat", "node007", "power-off", "91.5"} {
		if !strings.Contains(m.Subject+m.Body, want) {
			t.Errorf("mail missing %q:\n%s\n%s", want, m.Subject, m.Body)
		}
	}
}

func TestOneMailForManyNodes(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	for i := 0; i < 30; i++ {
		n.EventTriggered(r, "n02", 92, nil, 0)
		n.EventTriggered(r, "n03", 95, nil, 0)
	}
	if rec.Count() != 1 {
		t.Fatalf("mails = %d, paper says one per triggered event", rec.Count())
	}
}

func TestBatchWindowCollectsNodes(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{Batch: 5 * time.Second})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	clk.Advance(time.Second)
	n.EventTriggered(r, "n02", 91, nil, 0)
	clk.Advance(time.Second)
	n.EventTriggered(r, "n03", 92, nil, 0)
	if rec.Count() != 0 {
		t.Fatal("mail sent before batch window closed")
	}
	clk.Advance(5 * time.Second)
	if rec.Count() != 1 {
		t.Fatalf("mails = %d", rec.Count())
	}
	body := rec.Messages()[0].Body
	for _, node := range []string{"n01", "n02", "n03"} {
		if !strings.Contains(body, node) {
			t.Errorf("batched mail missing %s:\n%s", node, body)
		}
	}
	if !strings.Contains(rec.Messages()[0].Subject, "3 node(s)") {
		t.Errorf("subject = %q", rec.Messages()[0].Subject)
	}
}

func TestRefireSendsSecondMail(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	n.EventCleared(r, "n01") // admin fixed it
	n.EventTriggered(r, "n01", 93, nil, 0)
	if rec.Count() != 2 {
		t.Fatalf("mails = %d, want re-fire to send again", rec.Count())
	}
}

func TestNoRefireWhileOtherNodesStillFailing(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	n.EventTriggered(r, "n02", 91, nil, 0)
	n.EventCleared(r, "n01")
	n.EventTriggered(r, "n01", 92, nil, 0) // rejoins the still-open incident
	if rec.Count() != 1 {
		t.Fatalf("mails = %d", rec.Count())
	}
	if got := n.ActiveIncidents(); len(got) != 1 || got[0] != "overheat" {
		t.Fatalf("active = %v", got)
	}
	n.EventCleared(r, "n01")
	n.EventCleared(r, "n02")
	if len(n.ActiveIncidents()) != 0 {
		t.Fatal("incident not closed")
	}
}

func TestSelfHealingWithinBatchSendsNothing(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{Batch: 10 * time.Second})
	r := rule("flap")
	n.EventTriggered(r, "n01", 90, nil, 0)
	clk.Advance(2 * time.Second)
	n.EventCleared(r, "n01") // healed before the window expired
	clk.Advance(time.Minute)
	if rec.Count() != 0 {
		t.Fatalf("mails = %d for a self-healed flap", rec.Count())
	}
}

func TestIndependentRulesIndependentIncidents(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	n.EventTriggered(rule("overheat"), "n01", 90, nil, 0)
	n.EventTriggered(rule("fanfail"), "n01", 0, nil, 0)
	if rec.Count() != 2 {
		t.Fatalf("mails = %d for two distinct events", rec.Count())
	}
}

func TestActionFailureShownInMail(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	n.EventTriggered(rule("overheat"), "n01", 90, errors.New("icebox port dead"), 0)
	body := rec.Messages()[0].Body
	if !strings.Contains(body, "ACTION FAILED") || !strings.Contains(body, "icebox port dead") {
		t.Fatalf("body = %s", body)
	}
}

func TestWirelessFormat(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{Cluster: "c1", Wireless: true})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	m := rec.Messages()[0]
	if strings.Contains(m.Body, "\n") {
		t.Fatalf("wireless body not single-line: %q", m.Body)
	}
	for _, want := range []string{"c1", "overheat", "n01", "power-off"} {
		if !strings.Contains(m.Body, want) {
			t.Errorf("wireless body missing %q: %q", want, m.Body)
		}
	}
}

func TestClearWithoutIncidentIgnored(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	n.EventCleared(rule("ghost"), "n01")
	if rec.Count() != 0 {
		t.Fatal("clear without incident sent mail")
	}
}

func TestMailerFailureCounted(t *testing.T) {
	clk := clock.New()
	n := New(clk, MailerFunc(func(Message) error { return errors.New("smtp down") }), Config{})
	n.EventTriggered(rule("overheat"), "n01", 90, nil, 0)
	if n.SendFailures() != 1 {
		t.Fatalf("send failures = %d", n.SendFailures())
	}
}

func TestSendRetriedAfterTransientFailure(t *testing.T) {
	clk := clock.New()
	fails, sent := 2, 0
	mailer := MailerFunc(func(Message) error {
		if fails > 0 {
			fails--
			return errors.New("smtp down")
		}
		sent++
		return nil
	})
	n := New(clk, mailer, Config{Retry: 10 * time.Second})
	n.EventTriggered(rule("overheat"), "n01", 90, nil, 0)
	if sent != 0 {
		t.Fatalf("mail delivered despite failing mailer")
	}
	// Retries double from the base: 10 s then 20 s.
	clk.Advance(10 * time.Second)
	if sent != 0 {
		t.Fatalf("second attempt should also fail")
	}
	clk.Advance(20 * time.Second)
	if sent != 1 {
		t.Fatalf("mail sent %d times after mailer recovered, want 1", sent)
	}
	if n.SendFailures() != 2 {
		t.Fatalf("send failures = %d, want 2", n.SendFailures())
	}
	// The incident is still open and already delivered: no further sends.
	clk.Advance(5 * time.Minute)
	if sent != 1 {
		t.Fatalf("retry fired after success: sent = %d", sent)
	}
}

func TestSendRetriesAreBounded(t *testing.T) {
	clk := clock.New()
	attempts := 0
	mailer := MailerFunc(func(Message) error { attempts++; return errors.New("smtp dead") })
	n := New(clk, mailer, Config{Retry: time.Second})
	n.EventTriggered(rule("overheat"), "n01", 90, nil, 0)
	clk.Advance(time.Hour)
	if attempts != maxSendAttempts {
		t.Fatalf("attempts = %d, want %d (bounded retry)", attempts, maxSendAttempts)
	}
	if n.SendFailures() != maxSendAttempts {
		t.Fatalf("send failures = %d", n.SendFailures())
	}
}

func TestNoRetryAfterIncidentClears(t *testing.T) {
	clk := clock.New()
	attempts := 0
	mailer := MailerFunc(func(Message) error { attempts++; return errors.New("smtp down") })
	n := New(clk, mailer, Config{Retry: time.Second})
	r := rule("overheat")
	n.EventTriggered(r, "n01", 90, nil, 0)
	// The node heals before the retry fires: the incident closes, and the
	// pending retry must not mail about a problem that no longer exists.
	n.EventCleared(r, "n01")
	clk.Advance(time.Hour)
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry for a cleared incident)", attempts)
	}
}

func TestDefaults(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{})
	n.EventTriggered(rule("r"), "n01", 1, nil, 0)
	m := rec.Messages()[0]
	if m.To != "root@localhost" || !strings.Contains(m.Subject, "[cluster]") {
		t.Fatalf("defaults not applied: %+v", m)
	}
}

// Integration: engine + notifier together give end-to-end §5.2 semantics.
func TestEngineIntegration(t *testing.T) {
	clk := clock.New()
	n, rec := newNotifier(clk, Config{Cluster: "prod"})
	eng := events.New(nil, n, clk.Now)
	eng.AddRule(events.Rule{
		Name: "overtemp", Metric: "hw.temp.cpu", Op: events.GT, Threshold: 85, Notify: true,
	})
	hot := map[string]float64{"hw.temp.cpu": 92}
	cool := map[string]float64{"hw.temp.cpu": 40}
	for i := 0; i < 10; i++ {
		eng.ObserveMap("n1", hot)
		eng.ObserveMap("n2", hot)
	}
	if rec.Count() != 1 {
		t.Fatalf("mails = %d", rec.Count())
	}
	eng.ObserveMap("n1", cool)
	eng.ObserveMap("n2", cool)
	eng.ObserveMap("n1", hot) // re-fire
	if rec.Count() != 2 {
		t.Fatalf("mails after refire = %d", rec.Count())
	}
}

// Package notify implements ClusterWorX's smart notification (paper §5.2):
// "ClusterWorX notifies administrators of problems without swamping them
// with unnecessary e-mails. The e-mail informs the administrator which
// cluster is malfunctioning, the name of the triggered event, the node(s)
// which are experiencing the problem, and the action (if any) that was
// taken. Only one e-mail is sent per triggered event, even if multiple
// nodes are involved. If a node is fixed by an administrator but fails
// again later, the event re-fires automatically."
//
// Delivery is pluggable (Mailer); a recording mailer serves tests and
// simulation, and a wireless formatter produces the short pager/cell
// rendition the paper mentions.
package notify

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/events"
	"clusterworx/internal/flight"
	"clusterworx/internal/telemetry"
)

// Self-monitoring series for smart notification. Dedup hits are the
// paper's headline semantic — "only one e-mail is sent per triggered
// event, even if multiple nodes are involved" — so the suppression rate
// is itself a first-class monitored value.
// fltj is the process-wide flight journal (delivery is cold path).
var fltj = flight.Default()

var (
	mIncidents = telemetry.Default().Counter("cwx_notify_incidents_total")
	mDedupHits = telemetry.Default().Counter("cwx_notify_dedup_hits_total")
	mMessages  = telemetry.Default().Counter("cwx_notify_messages_total")
	mSendErrs  = telemetry.Default().Counter("cwx_notify_send_failures_total")
)

// Message is one outbound notification.
type Message struct {
	To      string
	Subject string
	Body    string
}

// Mailer delivers messages.
type Mailer interface {
	Send(Message) error
}

// MailerFunc adapts a function to Mailer.
type MailerFunc func(Message) error

// Send implements Mailer.
func (f MailerFunc) Send(m Message) error { return f(m) }

// Recording is a Mailer that captures messages for inspection.
type Recording struct {
	mu   sync.Mutex //cwx:lockrank mailrec 65
	msgs []Message
}

// Send implements Mailer.
func (r *Recording) Send(m Message) error {
	r.mu.Lock()
	r.msgs = append(r.msgs, m)
	r.mu.Unlock()
	return nil
}

// Messages returns a copy of everything sent.
func (r *Recording) Messages() []Message {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Message(nil), r.msgs...)
}

// Count returns the number of messages sent.
func (r *Recording) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// Config tunes a Notifier.
type Config struct {
	Cluster string // cluster name shown in messages
	Admin   string // destination address
	// Batch is how long the first trigger of an incident waits before the
	// e-mail goes out, so nodes failing together are reported together.
	// Zero sends immediately (and later nodes join the incident silently).
	Batch time.Duration
	// Wireless selects the short pager/cell-phone rendition.
	Wireless bool
	// Retry is the base delay before a failed incident e-mail is retried
	// (default 30 s). Each further attempt doubles the delay; after
	// maxSendAttempts total attempts the incident e-mail is given up on,
	// so a dead mailer cannot accumulate timers forever.
	Retry time.Duration
}

// maxSendAttempts bounds delivery attempts per incident: the paper's
// "one e-mail per event" guarantee must survive a transient SMTP
// failure, but a permanently dead mailer must not retry unboundedly.
const maxSendAttempts = 3

// Notifier implements events.Notifier with the paper's one-mail-per-event
// semantics. An incident opens at the first trigger of a rule and closes
// when every involved node has cleared; exactly one message is sent per
// incident.
type Notifier struct {
	mu     sync.Mutex //cwx:lockrank notify 60
	cfg    Config
	clk    *clock.Clock
	mailer Mailer

	incidents map[string]*incident // by rule name
	sendErrs  int
}

type incident struct {
	rule     events.Rule
	nodes    map[string]bool // node -> still failing
	actErrs  map[string]error
	values   map[string]float64
	sent     bool
	attempts int // delivery attempts so far (bounded by maxSendAttempts)
	timer    *clock.Timer
}

// New returns a Notifier delivering through mailer on clk's time base.
func New(clk *clock.Clock, mailer Mailer, cfg Config) *Notifier {
	if cfg.Cluster == "" {
		cfg.Cluster = "cluster"
	}
	if cfg.Admin == "" {
		cfg.Admin = "root@localhost"
	}
	if cfg.Retry <= 0 {
		cfg.Retry = 30 * time.Second
	}
	return &Notifier{
		cfg:       cfg,
		clk:       clk,
		mailer:    mailer,
		incidents: make(map[string]*incident),
	}
}

var _ events.Notifier = (*Notifier)(nil)

// EventTriggered implements events.Notifier. When the firing frame was
// sampled, the notify hop closes its trace: the delivery cost is
// journaled under the frame's trace id.
func (n *Notifier) EventTriggered(rule events.Rule, node string, value float64, actionErr error, trace uint64) {
	if trace != 0 {
		start := time.Now() //cwx:allow clockdet -- notify-hop telemetry measures real delivery cost; incidents are stamped with n.clk
		defer func() {
			fltj.Append(int(flight.Salt(node)), flight.Entry{
				Kind:   flight.KindStage,
				Stage:  flight.StageNotify,
				Node:   fltj.Sym(node),
				Trace:  trace,
				TimeNs: int64(n.clk.Now()),
				A:      int64(time.Since(start)), //cwx:allow clockdet -- closes the wall-clock notify span
				B:      1,
			})
		}()
	}
	n.mu.Lock()
	inc, active := n.incidents[rule.Name]
	if active {
		mDedupHits.Inc()
	} else {
		mIncidents.Inc()
		inc = &incident{
			rule:    rule,
			nodes:   make(map[string]bool),
			actErrs: make(map[string]error),
			values:  make(map[string]float64),
		}
		n.incidents[rule.Name] = inc
	}
	inc.nodes[node] = true
	inc.values[node] = value
	if actionErr != nil {
		inc.actErrs[node] = actionErr
	}
	if active {
		// One e-mail per triggered event: later nodes join silently.
		n.mu.Unlock()
		return
	}
	if n.cfg.Batch > 0 {
		inc.timer = n.clk.AfterFunc(n.cfg.Batch, func() { n.flush(rule.Name) })
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	n.flush(rule.Name)
}

// EventCleared implements events.Notifier: when the last failing node of
// an incident clears, the incident closes, so the next trigger opens a
// fresh one (automatic re-fire).
func (n *Notifier) EventCleared(rule events.Rule, node string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	inc, ok := n.incidents[rule.Name]
	if !ok {
		return
	}
	delete(inc.nodes, node)
	if len(inc.nodes) == 0 {
		if inc.timer != nil {
			inc.timer.Stop()
			// Incident resolved before the batch window expired: the
			// problem healed itself; say nothing.
		}
		delete(n.incidents, rule.Name)
	}
}

// flush sends the single incident e-mail. sent is marked before the
// mailer runs (so a concurrent flush cannot double-send) and cleared on
// failure, with a bounded doubling retry rescheduled on the clock — a
// transient SMTP failure must not lose the one e-mail the paper
// guarantees per event.
func (n *Notifier) flush(ruleName string) {
	n.mu.Lock()
	inc, ok := n.incidents[ruleName]
	if !ok || inc.sent {
		n.mu.Unlock()
		return
	}
	inc.sent = true
	inc.attempts++
	msg := n.render(inc)
	n.mu.Unlock()
	if err := n.mailer.Send(msg); err != nil {
		mSendErrs.Inc()
		n.mu.Lock()
		n.sendErrs++
		// Only retry while this incident is still the open one — it may
		// have cleared (or reopened as a fresh incident) during the send.
		if cur, ok := n.incidents[ruleName]; ok && cur == inc {
			inc.sent = false
			if inc.attempts < maxSendAttempts {
				delay := n.cfg.Retry << (inc.attempts - 1)
				inc.timer = n.clk.AfterFunc(delay, func() { n.flush(ruleName) })
				fltj.Append(0, flight.Entry{
					Kind:   flight.KindNotifyRetry,
					Detail: fltj.Sym(ruleName),
					TimeNs: int64(n.clk.Now()),
					A:      int64(inc.attempts),
				})
			}
		}
		n.mu.Unlock()
		return
	}
	mMessages.Inc()
}

// SendFailures returns the count of mailer errors.
func (n *Notifier) SendFailures() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sendErrs
}

// ActiveIncidents returns rule names with open incidents, sorted.
func (n *Notifier) ActiveIncidents() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.incidents))
	for name := range n.incidents {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// render formats the incident per the paper: cluster, event name, node(s),
// action taken.
func (n *Notifier) render(inc *incident) Message {
	nodes := make([]string, 0, len(inc.nodes))
	for node := range inc.nodes {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)

	if n.cfg.Wireless {
		// Pagers and cell phones get one dense line.
		return Message{
			To: n.cfg.Admin,
			Subject: fmt.Sprintf("[%s] %s on %d node(s)",
				n.cfg.Cluster, inc.rule.Name, len(nodes)),
			Body: fmt.Sprintf("%s %s nodes=%s action=%s",
				n.cfg.Cluster, inc.rule.Name, strings.Join(nodes, ","), inc.rule.Action),
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Cluster:  %s\n", n.cfg.Cluster)
	fmt.Fprintf(&b, "Event:    %s (%s %s %g)\n", inc.rule.Name, inc.rule.Metric, inc.rule.Op, inc.rule.Threshold)
	fmt.Fprintf(&b, "Node(s):\n")
	for _, node := range nodes {
		fmt.Fprintf(&b, "  %-16s value=%g", node, inc.values[node])
		if err := inc.actErrs[node]; err != nil {
			fmt.Fprintf(&b, "  ACTION FAILED: %v", err)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "Action:   %s\n", inc.rule.Action)
	return Message{
		To:      n.cfg.Admin,
		Subject: fmt.Sprintf("[%s] event %q triggered on %d node(s)", n.cfg.Cluster, inc.rule.Name, len(nodes)),
		Body:    b.String(),
	}
}

package events

import (
	"strings"
	"testing"
)

// FuzzParseRules drives the rule-file parser — input an administrator
// edits by hand and cwxd reads at start-up — over arbitrary text: it
// never panics, and whatever it accepts has a canonical form that is a
// fixpoint: FormatRules of the parsed rules parses again, to rules that
// format to the same text.
func FuzzParseRules(f *testing.F) {
	f.Add(sampleRules)
	for _, s := range []string{
		"", "# only a comment\n", "r m > 1", "r m = 1 notify", "r m != -0 sustain=1 action=",
		"r m >= NaN action=cycle", "r m <= +Inf ACTION=Reboot SUSTAIN=3 NOTIFY", "r m < 0x1p-2 action=halt",
		"r m > 1 notify=yes", "r m > 1 sustain=0", "r m > 1 action=plugin", "r m ? 1", "r m > one", "r m >",
		"a b > 1 # trailing comment\n\n\tc d < 2\r\n", "r\x00 m\xff > 1e400",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 32<<10 {
			return // the canonical form may spell an option longer; stay clear of the scanner's line limit
		}
		rules, err := ParseRules(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, r := range rules {
			if r.Name == "" || r.Metric == "" || r.Op > NE || r.Action >= ActPlugin || r.Sustain < 0 {
				t.Fatalf("accepted a rule outside the file grammar: %+v", r)
			}
		}
		canon := FormatRules(rules)
		again, err := ParseRules(strings.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\ninput %q\ncanon %q", err, text, canon)
		}
		if len(again) != len(rules) {
			t.Fatalf("canonical form holds %d rules, input held %d\ninput %q\ncanon %q", len(again), len(rules), text, canon)
		}
		if canon2 := FormatRules(again); canon2 != canon {
			t.Fatalf("canonical form is not a fixpoint:\nfirst  %q\nsecond %q", canon, canon2)
		}
	})
}

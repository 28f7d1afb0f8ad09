package gather

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"clusterworx/internal/procfs"
)

// TestStatAprioriChecksKeywords: the a-priori /proc/stat parser reads the
// 2.4 layout (testdata/stat-linux-2.4, procfs's render of the baseline)
// as the generic parser does, and refuses a Linux 6.18 /proc/stat
// (testdata/stat-linux-6.18, which has no page or swap line) with a
// ParseError naming both keywords, instead of reading the intr total as
// PageIn and the boot time as SwapOut.
func TestStatAprioriChecksKeywords(t *testing.T) {
	old, err := os.ReadFile("testdata/stat-linux-2.4")
	if err != nil {
		t.Fatal(err)
	}
	var render bytes.Buffer
	base := procfs.BaselineStat()
	procfs.RenderStat(&render, &base)
	if !bytes.Equal(old, render.Bytes()) {
		t.Fatal("testdata/stat-linux-2.4 is not procfs's render of the baseline")
	}
	var got, want CPUStats
	if err := parseStatApriori(old, &got); err != nil {
		t.Fatal(err)
	}
	if err := parseStatGeneric(old, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.PageIn != base.PageIn || got.Processes != base.Processes || len(got.Disks) == 0 {
		t.Fatalf("2.4 stat: a-priori %+v, generic %+v", got, want)
	}

	modern, err := os.ReadFile("testdata/stat-linux-6.18")
	if err != nil {
		t.Fatal(err)
	}
	var perr *ParseError
	err = parseStatApriori(modern, &got)
	if !errors.As(err, &perr) || !strings.Contains(perr.Detail, `"page"`) || !strings.Contains(perr.Detail, `"intr"`) {
		t.Fatalf("a 6.18 stat parses to PageIn %d SwapIn %d SwapOut %d Interrupts %d BootTime %d, error %v; want a ParseError naming page expected and intr found",
			got.PageIn, got.SwapIn, got.SwapOut, got.Interrupts, got.BootTime, err)
	}
	// One keyword out of place in the 2.4 layout is refused the same way.
	for kw, bad := range map[string]string{"ctxt": "ctx ", "btime": "boot ", "processes": "procs_running "} {
		swapped := bytes.Replace(old, []byte(kw+" "), []byte(bad), 1)
		if err := parseStatApriori(swapped, &got); !errors.As(err, &perr) || !strings.Contains(perr.Detail, `"`+kw+`"`) {
			t.Fatalf("a renamed %s line: %v, want a ParseError naming it", kw, err)
		}
	}
}

// FuzzGatherApriori runs the five a-priori parsers — the monitor's
// gatherers read every sample through them — over arbitrary bytes: none
// panics. Seeded with the committed /proc files of a 2.4 render and of a
// Linux 6.18 host; on those, an a-priori parser that accepts its file
// reads what the generic parser reads.
func FuzzGatherApriori(f *testing.F) {
	fixtures, err := filepath.Glob("testdata/*-linux-*")
	if err != nil || len(fixtures) < 7 {
		f.Fatalf("fixtures %v: %v", fixtures, err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		var ma, mg MemStats
		if parseMeminfoApriori(b, &ma) == nil && (parseMeminfoGeneric(b, &mg) != nil || ma != mg) {
			f.Fatalf("%s: a-priori meminfo %+v, generic %+v", path, ma, mg)
		}
		var sa, sg CPUStats
		if parseStatApriori(b, &sa) == nil && (parseStatGeneric(b, &sg) != nil || !reflect.DeepEqual(sa, sg)) {
			f.Fatalf("%s: a-priori stat %+v, generic %+v", path, sa, sg)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var m MemStats
		var c CPUStats
		var l LoadStats
		var u UptimeStats
		var n NetDevStats
		parseMeminfoApriori(b, &m) //nolint:errcheck // the property is that none panics
		parseStatApriori(b, &c)    //nolint:errcheck
		parseLoadavgApriori(b, &l) //nolint:errcheck
		parseUptimeApriori(b, &u)  //nolint:errcheck
		parseNetDevApriori(b, &n)  //nolint:errcheck
	})
}

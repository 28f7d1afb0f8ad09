// Command cwxctl is the ClusterWorX administrator CLI: it sends one
// control request to a cwxd server and prints the response.
//
//	cwxctl status
//	cwxctl values node003
//	cwxctl history node003 load.1 50
//	cwxctl power cycle node003
//	cwxctl console node003
//	cwxctl eventlog
//
// "cwxctl watch <verb>" holds the connection open and lets the server
// push change-only diffs (no polling — the screen redraws only when the
// view actually changed):
//
//	cwxctl watch status
//	cwxctl watch compare load.1
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"clusterworx/internal/core"
	"clusterworx/internal/serve"
)

func main() {
	server := flag.String("server", "localhost:7702", "cwxd control address")
	watch := flag.Duration("watch", 0, "re-issue the request at this interval (e.g. -watch 2s)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cwxctl [-server host:port] <request...>\n\nrequests:\n%s", core.CtlUsage())
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	client, err := core.DialCtl(*server, 5*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cwxctl:", err)
		os.Exit(1)
	}
	defer client.Close()

	req := strings.Join(flag.Args(), " ")
	if strings.EqualFold(flag.Arg(0), "watch") {
		runWatch(client, req)
		return
	}
	for {
		resp, err := client.Do(req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxctl:", err)
			os.Exit(1)
		}
		// Strip the leading OK token for clean shell output.
		resp = strings.TrimPrefix(resp, "OK")
		resp = strings.TrimPrefix(resp, " ")
		resp = strings.TrimPrefix(resp, "\n")
		if *watch <= 0 {
			if resp != "" {
				fmt.Println(resp)
			}
			return
		}
		// Watch mode: clear the screen and redraw, like watch(1).
		fmt.Printf("\x1b[2J\x1b[H%s  (every %s)\n\n%s\n", req, *watch, resp)
		time.Sleep(*watch)
	}
}

// runWatch enters streaming mode: the server pushes an initial snapshot
// and then one block per actual change — UPDATE diffs are folded into a
// local view, RESYNC/REFRESH replace it — and the screen redraws only
// when something changed.
func runWatch(client *core.CtlClient, req string) {
	if err := client.Send(req); err != nil {
		fmt.Fprintln(os.Stderr, "cwxctl:", err)
		os.Exit(1)
	}
	var v serve.View
	for {
		block, err := client.ReadBlock()
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxctl: stream ended:", err)
			os.Exit(1)
		}
		if strings.HasPrefix(block, "ERR") {
			fmt.Fprintln(os.Stderr, "cwxctl: server:", strings.TrimPrefix(strings.TrimPrefix(block, "ERR"), " "))
			os.Exit(1)
		}
		kind, gen, lines, err := serve.ParseBlock(block)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cwxctl:", err)
			os.Exit(1)
		}
		switch kind {
		case serve.BlockUpdate:
			if err := v.Apply(lines); err != nil {
				fmt.Fprintln(os.Stderr, "cwxctl: corrupt diff:", err)
				os.Exit(1)
			}
		default: // initial "OK", RESYNC, REFRESH: full rendering
			v.SetFull(lines)
		}
		fmt.Printf("\x1b[2J\x1b[H%s  (streaming, gen %d)\n\n%s\n", req, gen, v.Render())
	}
}

// gcaotop is a terminal ops view for a running gcaod: it consumes the
// daemon's /debug/live server-sent-event stream and renders each
// snapshot as a compact dashboard — request rate, per-route latency
// quantiles, cache hit rate, scheduler queue occupancy and sheds,
// flight-recorder retention — the way top renders a process table. The
// question it alone answers is "what is the request rate right now":
// req/s over the last interval exists nowhere but in the stream's
// successive snapshots; every other line restates /metrics or
// /debug/cache for an eye rather than a scraper.
//
// Usage:
//
//	gcaotop [-addr http://localhost:8080]         follow the stream
//	gcaotop -once                                 one snapshot, then exit
//	gcaotop -once -json                           one raw JSON snapshot (for scripts/CI)
//
// It is a plain net/http + bufio client: anything gcaotop renders, a
// curl -N user can see raw.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "gcaod base URL")
	once := flag.Bool("once", false, "render one snapshot and exit")
	rawJSON := flag.Bool("json", false, "print raw snapshot JSON instead of rendering")
	n := flag.Int("n", 0, "exit after N snapshots (0: until interrupted; -once implies 1)")
	flag.Parse()

	events := *n
	if *once {
		events = 1
	}
	url := fmt.Sprintf("%s/debug/live", strings.TrimRight(*addr, "/"))
	if events > 0 {
		url = fmt.Sprintf("%s?n=%d", url, events)
	}
	resp, err := http.Get(url)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		fatal(fmt.Errorf("%s: %s: %s", url, resp.Status, strings.TrimSpace(string(body))))
	}

	first := true
	err = readEvents(resp.Body, func(data []byte) error {
		if *rawJSON {
			fmt.Println(string(data))
			return nil
		}
		snap, err := parseSnapshot(data)
		if err != nil {
			return err
		}
		if !first && events != 1 {
			// Follow mode: repaint in place like top.
			fmt.Print("\033[H\033[2J")
		}
		first = false
		fmt.Print(render(snap))
		return nil
	})
	if err != nil {
		fatal(err)
	}
}

// readEvents decodes a server-sent-event stream, invoking fn with each
// event's data payload.
func readEvents(r io.Reader, fn func([]byte) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			if err := fn([]byte(rest)); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gcaotop:", err)
	os.Exit(1)
}

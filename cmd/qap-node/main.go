// Command qap-node serves one host of a live cluster deployment as its
// own OS process: it binds a TCP listener, takes the deployment — query
// set, partitioning, cluster shape, batch size, observability — from
// the splitter's (qap-run -engine live) first handshake, compiles the
// same distributed plan from it, executes the serialized tuple batches
// the splitter ships to the chosen host's operators, and streams the
// island-crossing results back. When the run completes, the node ships
// its result shards (metrics, operator stats, monitoring windows, trace
// events) and exits. A deployment the node cannot compile, or that
// compiles to a different plan fingerprint, fails the node at once.
//
// Usage:
//
//	qap-node -host 0 -listen :9430
//
// Example — a 2-host cluster on three terminals:
//
//	qap-node -host 0 -listen :9430
//	qap-node -host 1 -listen :9431
//	qap-run -engine live -nodes 'localhost:9430,localhost:9431' -partition srcIP -hosts 2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"qap"
)

// appFlags holds the parsed command line. Definitions live in
// defineFlags so the usage golden test renders the same FlagSet main
// uses.
type appFlags struct {
	host        int
	listen      string
	acceptGrace time.Duration
	netTimeout  time.Duration
}

func defineFlags(fs *flag.FlagSet) *appFlags {
	f := &appFlags{}
	fs.IntVar(&f.host, "host", 0, "which leaf host of the deployment this node serves")
	fs.StringVar(&f.listen, "listen", "127.0.0.1:0", "TCP listen address for the splitter to dial")
	fs.DurationVar(&f.acceptGrace, "accept-grace", 2*time.Minute, "how long to wait for the splitter's first connection")
	fs.DurationVar(&f.netTimeout, "net-timeout", 0, "live transport timeout: read, write, and credit waits (0 = 30s default)")
	return f
}

func main() {
	f := defineFlags(flag.CommandLine)
	flag.Parse()
	err := qap.ServeNode(f.host, f.listen, qap.LiveOptions{Timeout: f.netTimeout, AcceptGrace: f.acceptGrace}, func(addr string) {
		fmt.Printf("qap-node: host %d listening on %s\n", f.host, addr)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qap-node:", err)
		os.Exit(1)
	}
	fmt.Printf("qap-node: host %d done\n", f.host)
}

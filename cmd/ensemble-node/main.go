// Command ensemble-node hosts one ClusterGroup member per OS process
// over real UDP sockets — the deployable form of the 10-layer MACH
// stack. Three modes:
//
//	ensemble-node -id 2 -hosts hosts.txt [-rounds R -size B -seed S]
//	    run one member; the hosts file is the EPFL perfect-links layout
//	    ("id host port" per line). Speaks READY/GO/DONE/EXIT on
//	    stdout/stdin so a launcher can barrier the group; free-standing
//	    runs (no launcher) start immediately.
//
//	ensemble-node -launch 4 [-rounds R -size B -seed S -keep]
//	    spawn N node processes on loopback, run the chained workload
//	    across them, and assert delivery equivalence against the
//	    in-process netsim run of the same seed. Exit status is the
//	    verdict; artifacts from failed runs are kept for flight-diff.
//	    -loss F / -lossseed S inject seeded receive-side frame loss on
//	    every node and -bump N forces a mid-run generation bump after N
//	    deliveries; the loss-free reference must still be matched.
//
//	ensemble-node -merge merged.flight [-trace trace.json] n1.flight n2.flight ...
//	    interleave per-process flight dumps into one dump and,
//	    optionally, one Chrome trace ordered across all ranks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"ensemble/internal/deploy"
	"ensemble/internal/obs"
)

func main() {
	var (
		id       = flag.Int("id", 0, "member id from the hosts file (node mode)")
		hosts    = flag.String("hosts", "", "hosts file path (node mode)")
		launch   = flag.Int("launch", 0, "spawn N node processes on loopback and check equivalence")
		merge    = flag.String("merge", "", "merge flight dumps given as args into this file")
		rounds   = flag.Int("rounds", 16, "casts per member")
		size     = flag.Int("size", 128, "cast payload bytes")
		seed     = flag.Int64("seed", 42, "netsim reference seed")
		timeout  = flag.Duration("timeout", 60*time.Second, "per-phase wall-clock bound")
		out      = flag.String("out", "", "node mode: write the NodeResult JSON here")
		flight   = flag.String("flight", "", "node mode: write the raw flight dump here")
		trace    = flag.String("trace", "", "merge mode: also write a Chrome trace here")
		dir      = flag.String("artifacts", ".multiproc-artifacts", "launcher mode: artifacts directory")
		keep     = flag.Bool("keep", false, "launcher mode: keep artifacts even on success")
		loss     = flag.Float64("loss", 0, "drop this fraction of incoming data frames before decode")
		lossSeed = flag.Int64("lossseed", 0, "loss pattern seed (each node offsets by its id)")
		bump     = flag.Int("bump", 0, "bump cross-frame generations after N local deliveries")
		telem    = flag.String("telemetry", "", "node mode: serve live metrics over HTTP at host:port (\"127.0.0.1:0\" picks a port; announced as TELEM <addr>)")
	)
	flag.Parse()

	switch {
	case *merge != "":
		if err := runMerge(*merge, *trace, flag.Args()); err != nil {
			fatal(err)
		}
	case *launch > 0:
		w := deploy.Workload{Members: *launch, Rounds: *rounds, Size: *size, Seed: *seed}
		_, err := deploy.Launch(deploy.LaunchConfig{
			W: w, Artifacts: *dir, Keep: *keep, Timeout: *timeout, Log: os.Stderr,
			Loss: *loss, LossSeed: *lossSeed, BumpAfter: *bump,
		})
		if errors.Is(err, deploy.ErrNoLoopback) {
			// No loopback UDP (sandboxed CI): the check cannot run here;
			// skipping is the defined behavior, not a failure.
			fmt.Fprintln(os.Stderr, "ensemble-node: skipping:", err)
			return
		}
		if err != nil {
			fatal(err)
		}
	case *id > 0:
		if err := runNode(*id, *hosts, *rounds, *size, *seed, *timeout, *out, *flight, *loss, *lossSeed, *bump, *telem); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runNode(id int, hostsPath string, rounds, size int, seed int64, timeout time.Duration, out, flight string, loss float64, lossSeed int64, bump int, telem string) error {
	if hostsPath == "" {
		return fmt.Errorf("node mode needs -hosts")
	}
	hosts, err := deploy.LoadHosts(hostsPath)
	if err != nil {
		return err
	}
	res, runErr := deploy.RunNode(deploy.NodeConfig{
		ID:        id,
		Hosts:     hosts,
		W:         deploy.Workload{Rounds: rounds, Size: size, Seed: seed},
		Timeout:   timeout,
		Loss:      loss,
		LossSeed:  lossSeed,
		BumpAfter: bump,
		Telemetry: telem,
	}, os.Stdin, os.Stdout)
	// Outputs are written even when the run failed: a stalled run's
	// partial flight is exactly what the launcher archives.
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if flight != "" {
		if err := os.WriteFile(flight, res.Flight, 0o644); err != nil {
			return err
		}
	}
	return runErr
}

func runMerge(out, trace string, inputs []string) error {
	if len(inputs) < 2 {
		return fmt.Errorf("merge mode needs at least two dump files as arguments")
	}
	dumps := make([][]byte, len(inputs))
	for i, path := range inputs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dumps[i] = data
	}
	merged, err := obs.MergeDumps(dumps...)
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, merged, 0o644); err != nil {
		return err
	}
	if trace != "" {
		f, err := os.Create(trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := obs.WriteChromeTraceDump(f, merged); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ensemble-node:", err)
	os.Exit(1)
}

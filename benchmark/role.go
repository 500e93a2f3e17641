package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hetmodel/internal/fleet"
	"hetmodel/internal/serve"
)

// The roles are cmd/hetserve and cmd/hetrouter with the space and the model
// swapped for the benchmark's: the same zero-value http.Server, the same
// options at those commands' flag defaults. What differs is only what the
// benchmark needs to run them as children: the listener is 127.0.0.1:0 and
// its port goes to stdout, and a closed stdin ends the process.

// roleMain runs a server role, on the 1M grid, until stdin closes or a signal
// arrives.
func roleMain(role string, args []string) int {
	fs := flag.NewFlagSet(role, flag.ContinueOnError)
	var (
		refitAuth = fs.String("refit-auth", "", "member: shared secret arming POST /v1/refit")
		members   = fs.String("members", "", "router: comma-separated member base URLs")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var handler http.Handler
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	switch role {
	case "member":
		models, err := buildModel()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		planner, err := serve.New(models, gridSpace(grid1M), memberOptions(*refitAuth))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		handler = planner.Handler()
	case "router":
		router, err := fleet.New(gridSpace(grid1M), routerOptions(strings.Split(*members, ",")))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		router.CheckHealth(ctx)
		go router.HealthLoop(ctx, 5*time.Second) // hetrouter's -health-interval default
		handler = router.Handler()
	default:
		fmt.Fprintf(os.Stderr, "unknown role %q\n", role)
		return 2
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	fmt.Printf("PORT %d\n", ln.Addr().(*net.TCPAddr).Port)

	stdinClosed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) //nolint:errcheck // any end of stdin means the parent is gone
		close(stdinClosed)
	}()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, err)
		return 1
	case <-ctx.Done():
	case <-stdinClosed:
	}
	return 0
}

// memberOptions are hetserve's flag defaults: cache 64, maxinflight 0,
// maxqueue -1, timeout 5 s, workers 0.
func memberOptions(refitAuth string) serve.Options {
	return serve.Options{
		CacheSize:      64,
		MaxInFlight:    0,
		MaxQueue:       -1,
		DefaultTimeout: 5 * time.Second,
		Workers:        0,
		RefitAuth:      refitAuth,
	}
}

// routerOptions are hetrouter's flag defaults except -shardmin -1: the fleet
// workload always scatters.
func routerOptions(members []string) fleet.Options {
	return fleet.Options{
		Members:  members,
		ShardMin: -1,
		Timeout:  15 * time.Second,
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"fpsping/internal/cluster"
	"fpsping/internal/runner"
	"fpsping/internal/service"
)

// replica is one in-process fpspingd: an engine with the daemon's default
// options behind service.Server's route table.
type replica struct {
	url    string
	engine *service.Engine
	http   *http.Server
}

// stack is the system under test on loopback listeners: one replica, or a
// router in front of two. Nothing is spawned; close stops everything.
type stack struct {
	replicas []*replica
	ring     *cluster.Ring // the router's ring, or a one-replica ring
	router   *http.Server
	stopHC   context.CancelFunc // stops the router's health loop
	target   string             // base URL the clients send to
	client   *http.Client
	addrs    []string // every listener address, for the port check
	serving  sync.WaitGroup
	once     sync.Once
}

// serve runs srv on a fresh 127.0.0.1:0 listener and returns its address.
func (s *stack) serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	addr := ln.Addr().String()
	s.addrs = append(s.addrs, addr)
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed after Close
	}()
	return srv, addr, nil
}

// boot starts the stack. tr, when non-nil, wraps every handler with span
// recording; the program itself is unchanged. On error everything already
// started is closed.
func boot(routedStack bool, clients int, tr *tracer) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	n := 1
	if routedStack {
		n = 2
	}
	var urls []string
	for i := 0; i < n; i++ {
		eng := service.NewEngine(runner.DefaultWorkers(), service.DefaultCacheSize)
		var h http.Handler = service.NewServer("127.0.0.1:0", eng).Handler()
		rep := &replica{engine: eng}
		if tr != nil {
			h = tr.wrap(rep, h)
		}
		srv, addr, err := s.serve(h)
		if err != nil {
			return nil, err
		}
		rep.url, rep.http = "http://"+addr, srv
		s.replicas = append(s.replicas, rep)
		urls = append(urls, rep.url)
	}
	s.target = urls[0]
	if routedStack {
		// fpsrouter's default flags.
		rt, err := cluster.NewRouter(cluster.RouterConfig{
			Replicas:        urls,
			VNodes:          cluster.DefaultVNodes,
			Policy:          cluster.PolicyAffinity,
			Seed:            1,
			HealthInterval:  time.Second,
			BreakerFailures: 3,
			BreakerCooldown: 5 * time.Second,
			Timeout:         60 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.stopHC = cancel
		rt.Start(ctx)
		var h http.Handler = rt.Handler()
		if tr != nil {
			h = tr.wrap(nil, h)
		}
		srv, addr, err := s.serve(h)
		if err != nil {
			return nil, err
		}
		s.router, s.target, s.ring = srv, "http://"+addr, rt.Ring()
	} else if s.ring, err = cluster.NewRing(urls, cluster.DefaultVNodes); err != nil {
		return nil, err
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
		IdleConnTimeout:     90 * time.Second,
	}}
	return s, nil
}

// byURL returns the replica answering under url (nil if none).
func (s *stack) byURL(url string) *replica {
	for _, r := range s.replicas {
		if r.url == url {
			return r
		}
	}
	return nil
}

// close shuts the stack down front to back: client connections, the
// router and its health loop, then the replicas; it returns once every
// serving goroutine has exited. It closes rather than drains: the clients
// have stopped by then, and a graceful Shutdown would wait out connections
// the router's transport dialed but never used. Handlers still computing
// for a cancelled request finish on their own; checkReleased waits for
// them. Safe to call more than once.
func (s *stack) close() {
	s.once.Do(func() {
		if s.client != nil {
			s.client.CloseIdleConnections()
		}
		if s.router != nil {
			_ = s.router.Close() // closing is the point; its error changes nothing
		}
		if s.stopHC != nil {
			s.stopHC()
		}
		for _, r := range s.replicas {
			if r.http != nil {
				_ = r.http.Close()
			}
		}
		s.serving.Wait()
	})
}

// checkReleased verifies that a closed stack left nothing behind: the
// goroutine count is back at baseline (the router's health loop, the
// servers' connection goroutines and idle client connections all exit
// asynchronously, so it waits up to a few seconds) and every port the
// stack bound can be bound again.
func checkReleased(baseline int, addrs []string) error {
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutines still running after shutdown:\n")
			_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1)
			return fmt.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
	var errs []error
	for _, a := range addrs {
		ln, err := net.Listen("tcp", a)
		if err != nil {
			errs = append(errs, fmt.Errorf("port still bound: %w", err))
			continue
		}
		_ = ln.Close()
	}
	return errors.Join(errs...)
}

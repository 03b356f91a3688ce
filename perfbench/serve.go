package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"hyper/internal/server"
)

// served is an in-process hyperd: internal/server behind a loopback
// listener, reached only through HTTP like any remote client would.
type served struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	base string
	hc   *http.Client
	once sync.Once
}

func startServer() (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	// The trace ring and the usage table are bounded (256 entries by
	// default) and fill with the workload's own requests. Bounding them at
	// 32 fills them within the first seconds of every workload, so the
	// heap at the end of a run does not grow with the number of requests
	// the run managed to send.
	srv := server.New(server.Config{SlowQueryLog: io.Discard, TraceCapacity: 32, UsageEntries: 32})
	s := &served{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
		},
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener and the job subsystem down and waits for the
// serve goroutine to return; later calls are no-ops.
func (s *served) stop() {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.hs.Shutdown(ctx) // the serve goroutine's return is awaited below
		_ = s.srv.Drain(ctx)   // no jobs are submitted; drain only stops workers
		<-s.done
		s.hc.CloseIdleConnections()
	})
}

// call sends one JSON request and decodes a 200 response into out. The
// latency runs from handing the request to the transport until the last
// response byte is read; encoding the request and decoding the response
// fall outside it.
func (s *served) call(method, path string, in, out any) (time.Duration, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, fmt.Errorf("%s %s: %w", method, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return lat, fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return lat, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return lat, fmt.Errorf("%s %s: decoding: %w", method, path, err)
		}
	}
	return lat, nil
}

func (s *served) createSession(name, ds string, scale float64) (time.Duration, error) {
	var info server.SessionInfo
	lat, err := s.call("POST", "/v1/sessions", server.CreateSessionRequest{Name: name, Dataset: ds, Scale: scale, Seed: dataSeed}, &info)
	if err == nil && info.Name != name {
		err = fmt.Errorf("create %s: response names %q", name, info.Name)
	}
	return lat, err
}

func (s *served) deleteSession(name string) (time.Duration, error) {
	var out server.DeleteSessionResponse
	lat, err := s.call("DELETE", "/v1/sessions/"+name, nil, &out)
	if err == nil && out.Deleted != name {
		err = fmt.Errorf("delete %s: response names %q", name, out.Deleted)
	}
	return lat, err
}

func (s *served) sessionInfo(name string) (server.SessionInfo, error) {
	var info server.SessionInfo
	_, err := s.call("GET", "/v1/sessions/"+name, nil, &info)
	return info, err
}

func queryPath(session, kind string, traced bool) string {
	p := "/v1/sessions/" + session + "/" + kind
	if traced {
		p += "?trace=1"
	}
	return p
}

func (s *served) whatIf(session, src string, snapshot int64, traced bool) (*server.WhatIfResponse, time.Duration, error) {
	var out server.WhatIfResponse
	lat, err := s.call("POST", queryPath(session, "whatif", traced), server.QueryRequest{Query: src, Snapshot: snapshot}, &out)
	return &out, lat, err
}

func (s *served) howTo(session, src string, traced bool) (*server.HowToResponse, time.Duration, error) {
	var out server.HowToResponse
	lat, err := s.call("POST", queryPath(session, "howto", traced), server.QueryRequest{Query: src}, &out)
	return &out, lat, err
}

func (s *served) appendRows(session string, req server.AppendRequest) (*server.AppendResponse, time.Duration, error) {
	var out server.AppendResponse
	lat, err := s.call("POST", "/v1/sessions/"+session+"/rows", req, &out)
	return &out, lat, err
}

// usage returns the /v1/usage rows of one session.
func (s *served) usage(session string) ([]server.UsageEntry, error) {
	var out server.UsageResponse
	_, err := s.call("GET", "/v1/usage/"+session, nil, &out)
	return out.Shapes, err
}

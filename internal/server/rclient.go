package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"btreeperf/internal/query"
)

// ErrShed is returned by RClient's typed helpers when the server kept
// answering StatusBusy/StatusOverload after every allowed retry: the
// request was refused for capacity reasons, not failed.
var ErrShed = errors.New("server: request shed after retries")

// RetryConfig parameterizes an RClient. Zero values resolve to the
// defaults documented per field.
type RetryConfig struct {
	OpTimeout   time.Duration // per-attempt deadline; default 2s
	DialTimeout time.Duration // per-reconnect deadline; default 2s
	MaxAttempts int           // total tries per op (1 = no retries); default 4
	BaseBackoff time.Duration // first retry delay; default 5ms
	MaxBackoff  time.Duration // backoff cap; default 250ms

	// Retry budget: every operation earns BudgetRatio tokens (capped at
	// BudgetBurst) and every retry spends one, so at sustained overload
	// retries add at most BudgetRatio amplification instead of doubling
	// the load the server is already shedding. Default .1 / 20.
	BudgetRatio float64
	BudgetBurst float64

	Seed uint64 // backoff-jitter seed; 0 draws from crypto/rand via rand/v2
}

func (c *RetryConfig) fill() {
	if c.OpTimeout == 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.DialTimeout == 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.BaseBackoff == 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff == 0 {
		c.MaxBackoff = 250 * time.Millisecond
	}
	if c.BudgetRatio == 0 {
		c.BudgetRatio = 0.1
	}
	if c.BudgetBurst == 0 {
		c.BudgetBurst = 20
	}
}

// RetryStats counts an RClient's resilience events.
type RetryStats struct {
	Ops           int64
	Retries       int64
	Reconnects    int64
	BudgetStops   int64 // retries forgone because the budget was empty
	ShedResponses int64 // Busy/Overload statuses observed (pre-retry)
	NetErrors     int64 // transport errors observed (pre-retry)
	FinalFailures int64 // ops that exhausted retries with an error
	FinalShed     int64 // ops that exhausted retries still shed
}

// RClient is a resilient single-op client: each operation carries a
// deadline, transport errors reconnect automatically, and retryable
// statuses (StatusBusy, StatusOverload) and transient network errors are
// retried with capped exponential backoff, full jitter, and a retry
// budget so retries cannot amplify an overload. Safe for concurrent use;
// operations are serialized on one connection.
type RClient struct {
	addr string
	cfg  RetryConfig

	mu     sync.Mutex
	c      *Client // nil when disconnected
	budget float64
	rng    *rand.Rand

	ops         atomic.Int64
	retries     atomic.Int64
	reconnects  atomic.Int64
	budgetStops atomic.Int64
	shedResps   atomic.Int64
	netErrors   atomic.Int64
	finalFail   atomic.Int64
	finalShed   atomic.Int64
}

// DialResilient connects an RClient. The initial dial is itself given
// MaxAttempts tries, so a server still coming up does not fail the
// constructor.
func DialResilient(addr string, cfg RetryConfig) (*RClient, error) {
	cfg.fill()
	var src rand.Source
	if cfg.Seed != 0 {
		src = rand.NewPCG(cfg.Seed, cfg.Seed^0x9e3779b97f4a7c15)
	} else {
		src = rand.NewPCG(rand.Uint64(), rand.Uint64())
	}
	r := &RClient{addr: addr, cfg: cfg, budget: cfg.BudgetBurst, rng: rand.New(src)}
	var lastErr error
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(r.backoff(attempt))
		}
		r.mu.Lock()
		lastErr = r.connectLocked()
		r.mu.Unlock()
		if lastErr == nil {
			return r, nil
		}
	}
	return nil, fmt.Errorf("server: dial %s: %w", addr, lastErr)
}

// connectLocked (re)establishes the connection; call with mu held.
func (r *RClient) connectLocked() error {
	if r.c != nil {
		return nil
	}
	c, err := DialTimeout(r.addr, r.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.SetOpTimeout(r.cfg.OpTimeout)
	r.c = c
	return nil
}

// backoff returns the jittered delay before the attempt-th retry
// (attempt >= 1): full jitter over [base/2, base], base doubling per
// attempt up to MaxBackoff.
func (r *RClient) backoff(attempt int) time.Duration {
	base := r.cfg.BaseBackoff << (attempt - 1)
	if base > r.cfg.MaxBackoff || base <= 0 {
		base = r.cfg.MaxBackoff
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int64N(int64(base)/2 + 1))
	r.mu.Unlock()
	return base/2 + j
}

// spendRetryToken reports whether the budget allows one more retry.
func (r *RClient) spendRetryToken() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget < 1 {
		return false
	}
	r.budget--
	return true
}

// Do runs one request with retries. When every allowed attempt was shed,
// it returns the last (Busy/Overload) response with a nil error — the
// status carries the verdict; use the typed helpers for an error. When
// every attempt hit a transport error it returns the last error. Shed
// pages are retried exactly like shed point ops — the server keeps shed
// replies to query ops page-shaped, so the retry loop sees the status
// either way.
func (r *RClient) Do(req Request) (Response, error) {
	r.ops.Add(1)
	r.mu.Lock()
	r.budget += r.cfg.BudgetRatio
	if r.budget > r.cfg.BudgetBurst {
		r.budget = r.cfg.BudgetBurst
	}
	r.mu.Unlock()

	var lastResp Response
	var lastErr error
	haveResp := false
	for attempt := 0; attempt == 0 || attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !r.spendRetryToken() {
				r.budgetStops.Add(1)
				break
			}
			r.retries.Add(1)
			time.Sleep(r.backoff(attempt))
		}

		r.mu.Lock()
		var resp Response
		err := r.connectLocked()
		if err == nil {
			if resp, err = r.c.Do(req); err != nil {
				// The conn is in an unknown state (a response may still be in
				// flight); drop it so the next attempt starts clean.
				r.c.Close()
				r.c = nil
				r.reconnects.Add(1)
			}
		}
		r.mu.Unlock()
		if err != nil {
			r.netErrors.Add(1)
			lastErr, haveResp = err, false
			continue
		}
		if !Retryable(resp.Status) {
			return resp, nil
		}
		r.shedResps.Add(1)
		lastResp, haveResp = resp, true
	}
	if haveResp {
		r.finalShed.Add(1)
		return lastResp, nil
	}
	r.finalFail.Add(1)
	return Response{}, lastErr
}

// call is Do for the typed helpers: an op still shed after every allowed
// retry is an error (ErrShed), not a status.
func (r *RClient) call(req Request) (Response, error) {
	resp, err := r.Do(req)
	if err == nil && Retryable(resp.Status) {
		name := "busy"
		if resp.Status == StatusOverload {
			name = "overloaded"
		}
		err = fmt.Errorf("%w (server %s)", ErrShed, name)
	}
	return resp, err
}

// Get looks key up, retrying as configured.
func (r *RClient) Get(key int64) (uint64, bool, error) {
	resp, err := r.call(Request{Op: OpGet, Key: key})
	return resp.Val, err == nil && resp.Status == StatusOK, err
}

// Put stores key→val, retrying as configured.
func (r *RClient) Put(key int64, val uint64) (bool, error) {
	resp, err := r.call(Request{Op: OpPut, Key: key, Val: val})
	return err == nil && resp.Status == StatusOK, err
}

// Del removes key, retrying as configured.
func (r *RClient) Del(key int64) (bool, error) {
	resp, err := r.call(Request{Op: OpDel, Key: key})
	return err == nil && resp.Status == StatusOK, err
}

// Scan fetches one page of [lo, hi), retrying as configured; the token
// contract matches Client.Scan. Stateless tokens make query retries
// safe: a replayed token re-serves the same page.
func (r *RClient) Scan(lo, hi int64, limit int, token []byte) ([]query.KV, []byte, error) {
	resp, err := r.call(Request{Op: OpScan, Key: lo, Hi: hi, Limit: limit, Token: token})
	if err != nil {
		return nil, nil, err
	}
	if resp.Status != StatusOK {
		return nil, nil, fmt.Errorf("server: scan: %s", StatusName(resp.Status))
	}
	return resp.Entries, resp.Token, nil
}

// Seqs returns the server's per-shard replication sequences, retrying
// as configured; see Client.Seqs.
func (r *RClient) Seqs() ([]int64, error) {
	resp, err := r.call(Request{Op: OpSeqs})
	if err != nil {
		return nil, err
	}
	return decodeSeqs(resp)
}

// Ping round-trips a no-op.
func (r *RClient) Ping() error {
	_, err := r.call(Request{Op: OpPing})
	return err
}

// Stats snapshots the resilience counters.
func (r *RClient) Stats() RetryStats {
	return RetryStats{
		Ops:           r.ops.Load(),
		Retries:       r.retries.Load(),
		Reconnects:    r.reconnects.Load(),
		BudgetStops:   r.budgetStops.Load(),
		ShedResponses: r.shedResps.Load(),
		NetErrors:     r.netErrors.Load(),
		FinalFailures: r.finalFail.Load(),
		FinalShed:     r.finalShed.Load(),
	}
}

// Close tears down the connection; in-flight operations error out.
func (r *RClient) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	if r.c != nil {
		err = r.c.Close()
		r.c = nil
	}
	return err
}

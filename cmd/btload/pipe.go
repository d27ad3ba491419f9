package main

import (
	"btreeperf/internal/server"
	"btreeperf/internal/workload"
)

// stamp is what a sender leaves for the receiver about one request on
// the wire: responses are untagged and in order, so the n-th stamp
// describes the n-th response.
type stamp struct {
	t   int64       // ns the latency is measured from (scheduled arrival when paced)
	op  workload.Op // Scan: the response is page-shaped
	key int64
	val uint64 // audit-verify: the value the key must hold
}

// pipe is one pipelined connection: the caller's goroutine sends, a
// second goroutine receives, and the stamps channel between them both
// matches responses to requests and bounds the pipeline at depth. Every
// btload mode drives its connections through one, so the discipline —
// depth bound, flush when full, flush every 64, send before stamp,
// in-order receive, and the count of requests in flight on a dead
// connection — is written here and nowhere else.
type pipe struct {
	c       *server.Client
	stamps  chan stamp
	end     chan pipeEnd
	sent    int
	sendErr error
}

type pipeEnd struct {
	err  error
	lost int // stamped requests that never got an answer
}

// newPipe starts the receiver; onResp runs on it, once per response, in
// request order.
func newPipe(c *server.Client, depth int, onResp func(stamp, server.Response)) *pipe {
	p := &pipe{c: c, stamps: make(chan stamp, depth), end: make(chan pipeEnd, 1)}
	go func() {
		for st := range p.stamps {
			var resp server.Response
			var err error
			if st.op == workload.Scan {
				resp, err = c.RecvPage()
			} else {
				resp, err = c.Recv()
			}
			if err != nil {
				// Unblock the sender, which may be parked on stamps,
				// counting what was in flight. The sender stops once its
				// own Send/Flush fails (or its mode says stop), then
				// finish closes stamps, so the drain cannot hang.
				lost := 1
				for range p.stamps {
					lost++
				}
				p.end <- pipeEnd{err: err, lost: lost}
				return
			}
			onResp(st, resp)
		}
		p.end <- pipeEnd{}
	}()
	return p
}

// send pipelines one request. It returns nil exactly when the request
// was stamped, which is when it counts as sent. After an error the
// connection is done: the caller stops sending and calls finish.
func (p *pipe) send(req server.Request, st stamp) error {
	if len(p.stamps) == cap(p.stamps) {
		// Pipeline full: push buffered requests to the wire before
		// blocking on a free slot, or the receiver would wait for
		// responses to requests still sitting in the client buffer.
		p.flush()
	}
	if p.sendErr != nil {
		return p.sendErr
	}
	// Send before stamping: a stamp must only ever exist for a request
	// that reached the wire path, or a failed Send would leave a phantom
	// stamp for the receiver to count as lost in flight — an op charged
	// to the error budget (or to an audit's unacked tally) that was
	// never sent at all.
	if p.sendErr = p.c.Send(req); p.sendErr != nil {
		return p.sendErr
	}
	p.stamps <- st
	p.sent++
	if p.sent%64 == 0 {
		p.flush() // a failure stops the next send; this request is stamped
	}
	return nil
}

// flush pushes buffered requests to the wire; a paced sender calls it
// before it sleeps.
func (p *pipe) flush() error {
	if p.sendErr == nil {
		p.sendErr = p.c.Flush()
	}
	return p.sendErr
}

// finish flushes, waits for the receiver to answer or give up on every
// stamped request, and reports how many went unanswered and why.
func (p *pipe) finish() (lost int, err error) {
	p.flush()
	close(p.stamps)
	e := <-p.end
	if e.err == nil {
		e.err = p.sendErr
	}
	return e.lost, e.err
}

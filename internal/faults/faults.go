// Package faults injects network failures into net.Listener/net.Conn
// pairs so the serving layer can be tested — and demonstrated — against
// the conditions it claims to survive: added latency, stalled peers,
// truncated frames, mid-stream connection resets, and dropped accepts.
//
// An Injector is built from a Config (or a compact spec string, see
// ParseSpec) and wraps listeners and conns. Every injected fault is
// drawn from a deterministic per-connection generator seeded from
// Config.Seed and the connection index, so a given (config, connection
// order) reproduces the same fault schedule. All wrappers are safe for
// the usual two-goroutine (one reader, one writer) connection pattern.
package faults

import (
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Config parameterizes an Injector. Probabilities are per I/O call
// (PDrop: per connection); zero disables that fault.
type Config struct {
	Seed uint64 // generator seed; 0 means 1

	Latency time.Duration // fixed delay added to every read and write
	Jitter  time.Duration // uniform [0, Jitter) extra delay per call

	PStall float64       // probability an I/O call stalls for Stall first
	Stall  time.Duration // stall length; default 100ms when PStall > 0

	PReset float64 // probability an I/O call hard-closes the conn (RST on TCP)

	PTrunc float64 // probability a write sends a prefix, then hard-closes

	PDrop float64 // probability a new conn is closed before any I/O
}

func (c *Config) fill() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.PStall > 0 && c.Stall == 0 {
		c.Stall = 100 * time.Millisecond
	}
}

// ParseSpec parses a compact comma-separated fault spec, e.g.
//
//	latency=200us,jitter=1ms,pstall=0.001,stall=50ms,preset=0.0005,ptrunc=0.0002,pdrop=0.01,seed=7
//
// Unknown keys are an error; an empty spec is a zero Config.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return c, fmt.Errorf("faults: bad spec element %q (want key=value)", kv)
		}
		var err error
		switch k {
		case "latency":
			c.Latency, err = time.ParseDuration(v)
		case "jitter":
			c.Jitter, err = time.ParseDuration(v)
		case "stall":
			c.Stall, err = time.ParseDuration(v)
		case "pstall":
			c.PStall, err = strconv.ParseFloat(v, 64)
		case "preset":
			c.PReset, err = strconv.ParseFloat(v, 64)
		case "ptrunc":
			c.PTrunc, err = strconv.ParseFloat(v, 64)
		case "pdrop":
			c.PDrop, err = strconv.ParseFloat(v, 64)
		case "seed":
			c.Seed, err = strconv.ParseUint(v, 10, 64)
		default:
			return c, fmt.Errorf("faults: unknown spec key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("faults: bad %s: %v", k, err)
		}
	}
	for _, p := range []float64{c.PStall, c.PReset, c.PTrunc, c.PDrop} {
		if p < 0 || p > 1 {
			return c, fmt.Errorf("faults: probability %v outside [0,1]", p)
		}
	}
	return c, nil
}

// Stats counts injected faults across an Injector's connections.
type Stats struct {
	Conns   int64 // connections wrapped
	Drops   int64 // connections dropped at accept/dial
	Stalls  int64
	Resets  int64
	Truncs  int64
	Delayed int64 // I/O calls that got latency/jitter
}

func (s Stats) String() string {
	return fmt.Sprintf("conns=%d drops=%d stalls=%d resets=%d truncs=%d delayed=%d",
		s.Conns, s.Drops, s.Stalls, s.Resets, s.Truncs, s.Delayed)
}

// Injector wraps listeners and connections with fault injection.
type Injector struct {
	cfg     Config
	connSeq atomic.Uint64
	conns   atomic.Int64
	drops   atomic.Int64
	stalls  atomic.Int64
	resets  atomic.Int64
	truncs  atomic.Int64
	delayed atomic.Int64
}

// New builds an Injector for cfg.
func New(cfg Config) *Injector {
	cfg.fill()
	return &Injector{cfg: cfg}
}

// Stats snapshots the injected-fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Conns:   i.conns.Load(),
		Drops:   i.drops.Load(),
		Stalls:  i.stalls.Load(),
		Resets:  i.resets.Load(),
		Truncs:  i.truncs.Load(),
		Delayed: i.delayed.Load(),
	}
}

// Listener wraps ln so every accepted connection carries the injector's
// faults. With PDrop, some connections are hard-closed at accept (the
// peer sees a reset/EOF; the caller never sees the conn).
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, inj: i}
}

type listener struct {
	net.Listener
	inj *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		fc := l.inj.Conn(c)
		if fc == nil {
			continue // dropped at accept; keep accepting
		}
		return fc, nil
	}
}

// Conn wraps c with the injector's faults. It returns nil when the
// connection is dropped on arrival (PDrop): the underlying conn has been
// hard-closed and the caller should treat the dial/accept as lost.
func (i *Injector) Conn(c net.Conn) net.Conn {
	fc := &Conn{
		conn: c,
		inj:  i,
		cfg:  i.cfg,
	}
	// splitmix64-style per-conn stream: decorrelate conns without locks.
	fc.rng.Store(i.cfg.Seed + (i.connSeq.Add(1) * 0x9e3779b97f4a7c15))
	if fc.chance(i.cfg.PDrop) {
		i.drops.Add(1)
		hardClose(c)
		return nil
	}
	i.conns.Add(1)
	return fc
}

// Conn is a net.Conn with fault injection on Read and Write. It is safe
// for one concurrent reader plus one concurrent writer, like net.TCPConn.
type Conn struct {
	conn net.Conn
	inj  *Injector
	cfg  Config
	rng  atomic.Uint64
	dead atomic.Bool
}

// next is a lock-free splitmix64 step.
func (c *Conn) next() uint64 {
	z := c.rng.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (c *Conn) chance(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(c.next()>>11)/(1<<53) < p
}

// delay sleeps the configured latency + jitter, if any.
func (c *Conn) delay() {
	d := c.cfg.Latency
	if c.cfg.Jitter > 0 {
		d += time.Duration(c.next() % uint64(c.cfg.Jitter))
	}
	if d > 0 {
		c.inj.delayed.Add(1)
		time.Sleep(d)
	}
}

// preIO applies stall/reset faults shared by reads and writes. It
// returns false when the conn was reset and the caller should fail.
func (c *Conn) preIO() bool {
	if c.dead.Load() {
		return false
	}
	if c.chance(c.cfg.PStall) {
		c.inj.stalls.Add(1)
		time.Sleep(c.cfg.Stall)
	}
	if c.chance(c.cfg.PReset) {
		c.reset()
		return false
	}
	c.delay()
	return !c.dead.Load()
}

// reset hard-closes the connection: SetLinger(0) turns Close into a TCP
// RST so the peer sees a mid-stream reset, not a clean FIN.
func (c *Conn) reset() {
	if c.dead.Swap(true) {
		return
	}
	c.inj.resets.Add(1)
	hardClose(c.conn)
}

func hardClose(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (c *Conn) Read(b []byte) (int, error) {
	if !c.preIO() {
		return 0, net.ErrClosed
	}
	return c.conn.Read(b)
}

func (c *Conn) Write(b []byte) (int, error) {
	if !c.preIO() {
		return 0, net.ErrClosed
	}
	if c.chance(c.cfg.PTrunc) && len(b) > 1 {
		c.inj.truncs.Add(1)
		n, err := c.conn.Write(b[:len(b)/2])
		c.reset()
		if err != nil {
			return n, err
		}
		return n, net.ErrClosed
	}
	return c.conn.Write(b)
}

func (c *Conn) Close() error {
	c.dead.Store(true)
	return c.conn.Close()
}

// CloseRead half-closes the read side when the underlying conn supports
// it (the server's drain path relies on this for TCP conns).
func (c *Conn) CloseRead() error {
	if cr, ok := c.conn.(interface{ CloseRead() error }); ok {
		return cr.CloseRead()
	}
	return c.conn.SetReadDeadline(time.Now())
}

func (c *Conn) LocalAddr() net.Addr                { return c.conn.LocalAddr() }
func (c *Conn) RemoteAddr() net.Addr               { return c.conn.RemoteAddr() }
func (c *Conn) SetDeadline(t time.Time) error      { return c.conn.SetDeadline(t) }
func (c *Conn) SetReadDeadline(t time.Time) error  { return c.conn.SetReadDeadline(t) }
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.conn.SetWriteDeadline(t) }

package distrib

import (
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// Transport is one framed, ordered, bidirectional message channel to a
// worker. Send and Recv are each used from one goroutine at a time (the
// coordinator pairs every worker with one manager goroutine per run);
// Close may race with either and unblocks a pending Send or Recv.
type Transport interface {
	Send(*Msg) error
	Recv(*Msg) error
	Close() error
}

// streamTransport frames messages over any byte stream: a TCP connection
// or a pair of process pipes.
type streamTransport struct {
	r io.Reader
	w io.Writer

	mu     sync.Mutex
	closed bool
	cs     []io.Closer
}

// NewStreamTransport wraps a read and a write stream into a Transport;
// closers are closed (once) by Close, unblocking pending reads.
func NewStreamTransport(r io.Reader, w io.Writer, closers ...io.Closer) Transport {
	return &streamTransport{r: r, w: w, cs: closers}
}

func (t *streamTransport) Send(m *Msg) error { return WriteFrame(t.w, m) }
func (t *streamTransport) Recv(m *Msg) error { return ReadFrame(t.r, m) }

func (t *streamTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for _, c := range t.cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Dial connects to a remote amworker listening on a TCP address and
// completes the hello exchange.
func Dial(addr string) (Transport, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("distrib: dial worker %s: %w", addr, err)
	}
	t := NewStreamTransport(conn, conn, conn)
	if err := handshake(t); err != nil {
		t.Close()
		return nil, fmt.Errorf("distrib: worker %s: %w", addr, err)
	}
	return t, nil
}

// DialWorkers connects to every address in a comma-separated list.
func DialWorkers(addrs string) ([]Transport, error) {
	var ts []Transport
	for _, addr := range strings.Split(addrs, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		t, err := Dial(addr)
		if err != nil {
			for _, prev := range ts {
				prev.Close()
			}
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// handshake sends our hello and verifies the worker's.
func handshake(t Transport) error {
	if err := t.Send(&Msg{Type: msgHello, Version: Version}); err != nil {
		return fmt.Errorf("hello send: %w", err)
	}
	var m Msg
	if err := t.Recv(&m); err != nil {
		return fmt.Errorf("hello recv: %w", err)
	}
	if m.Type != msgHello || m.Version != Version {
		return fmt.Errorf("bad hello %q v%d (want %q v%d)", m.Type, m.Version, msgHello, Version)
	}
	return nil
}

// Proc is one spawned local worker process with its stdio transport.
type Proc struct {
	Transport
	cmd  *exec.Cmd
	wait sync.Once
}

// Kill terminates the worker process without ceremony — the coordinator's
// reassignment path must treat this as routine worker loss.
func (p *Proc) Kill() error { return p.cmd.Process.Kill() }

// Pid returns the worker's OS process id.
func (p *Proc) Pid() int { return p.cmd.Process.Pid }

// Close closes the transport, which ends the worker's session, and reaps
// the process. Concurrent and repeated calls are safe; each returns once
// the process has exited.
func (p *Proc) Close() error {
	err := p.Transport.Close()
	p.wait.Do(func() { p.cmd.Wait() })
	return err
}

// Spawn starts one worker process from argv (argv[0] is the binary; the
// remaining args must put it in stdio-worker mode), wires its stdin/stdout
// into a Transport and completes the hello exchange. Stderr passes through
// to the parent's, so worker crashes stay diagnosable.
func Spawn(argv []string, env []string) (*Proc, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stderr = os.Stderr
	if env != nil {
		cmd.Env = env
	}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("distrib: spawn worker %s: %w", argv[0], err)
	}
	t := NewStreamTransport(out, in, in, out)
	p := &Proc{Transport: t, cmd: cmd}
	if err := handshake(t); err != nil {
		p.Kill()
		p.Close()
		return nil, fmt.Errorf("distrib: worker %s: %w", argv[0], err)
	}
	return p, nil
}

// SpawnN starts n identical local workers.
func SpawnN(n int, argv []string, env []string) ([]*Proc, error) {
	procs := make([]*Proc, 0, n)
	for i := 0; i < n; i++ {
		p, err := Spawn(argv, env)
		if err != nil {
			for _, prev := range procs {
				prev.Kill()
				prev.Close()
			}
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// Connect assembles a worker fleet: the remote workers at addrs (a
// comma-separated list, possibly empty) followed by spawn local workers,
// each a re-execution of the running binary with its -amworker flag. The
// fleet serves any number of runs; the returned func closes every worker,
// which ends their sessions. On error, workers already connected are
// closed.
func Connect(spawn int, addrs string) ([]Transport, func(), error) {
	var ws []Transport
	closeAll := func() {
		for _, w := range ws {
			w.Close()
		}
	}
	if addrs != "" {
		remote, err := DialWorkers(addrs)
		if err != nil {
			return nil, nil, err
		}
		ws = append(ws, remote...)
	}
	if spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("distrib: cannot locate own binary to spawn workers: %w", err)
		}
		procs, err := SpawnN(spawn, []string{exe, "-amworker"}, nil)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		for _, p := range procs {
			ws = append(ws, p)
		}
	}
	return ws, closeAll, nil
}

// Loopback starts an in-process worker goroutine running Serve and
// returns the coordinator-side transport — the zero-overhead harness for
// tests and benchmarks of the dispatch/merge machinery. Closing the
// transport ends the worker goroutine.
func Loopback() Transport {
	cr, cw := io.Pipe() // coordinator → worker
	wr, ww := io.Pipe() // worker → coordinator
	wt := NewStreamTransport(cr, ww, cr, ww)
	go func() {
		Serve(wt)
		wt.Close()
	}()
	t := NewStreamTransport(wr, cw, cw, wr)
	if err := handshake(t); err != nil {
		panic(fmt.Sprintf("distrib: loopback handshake: %v", err))
	}
	return t
}

package main

// loadgen.go is the load generator: pre-encoded binary frames written on an
// open-loop schedule or inside a closed-loop window, and the reader that
// timestamps the server's acknowledgements. Everything a timed loop needs is
// allocated before its clock starts.

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"deltanet/internal/binproto"
	"deltanet/internal/core"
)

// frame is one pre-encoded write: an ops frame followed by a sync frame
// whose token is the frame's index in its schedule.
type frame struct {
	due   time.Duration // open loop: offset from the phase start
	bytes []byte
	ops   int
}

// chunk cuts ops into runs of perFrame updates.
func chunk(ops []core.BatchOp, perFrame int) [][]core.BatchOp {
	out := make([][]core.BatchOp, 0, (len(ops)+perFrame-1)/perFrame)
	for i := 0; i < len(ops); i += perFrame {
		out = append(out, ops[i:min(i+perFrame, len(ops))])
	}
	return out
}

// encodeFrames encodes one frame per chunk, each followed by its sync. One
// backing buffer holds all of them.
func encodeFrames(chunks [][]core.BatchOp) []frame {
	size := 0
	for _, c := range chunks {
		size += 16*len(c) + 16
	}
	buf := make([]byte, 0, size)
	frames := make([]frame, len(chunks))
	for i, c := range chunks {
		start := len(buf)
		buf = binproto.AppendOps(buf, c)
		buf = binproto.AppendSync(buf, uint64(i))
		frames[i] = frame{bytes: buf[start:len(buf):len(buf)], ops: len(c)}
	}
	return frames
}

// binConn is a connection upgraded to the binary batch protocol, driven
// below the client package so writes and reads can run on separate
// goroutines: an open-loop sender must never wait for a reply.
type binConn struct {
	c  net.Conn
	br *bufio.Reader
}

func dialBinary(addr string) (*binConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	b := &binConn{c: c, br: bufio.NewReaderSize(c, 64<<10)}
	if _, err := fmt.Fprintf(c, "dnbin %d\n", binproto.Version); err != nil {
		c.Close()
		return nil, err
	}
	line, err := b.br.ReadString('\n')
	if err != nil {
		c.Close()
		return nil, err
	}
	if want := fmt.Sprintf("ok dnbin %d", binproto.Version); strings.TrimSpace(line) != want {
		c.Close()
		return nil, fmt.Errorf("dnbin handshake: got %q", line)
	}
	return b, nil
}

// ackLog is what the reader goroutine saw: when each frame's sync was
// acknowledged, and every refusal.
type ackLog struct {
	at   []time.Time // per token; zero = never acknowledged
	busy int         // backpressure notices
	errs int         // "err ..." lines: refused frames
	err  error       // transport failure that ended the reader
}

var okSync = []byte("ok sync ")

// readAcks reads reply lines until the sync with token stop is acknowledged
// or the connection fails, stamping each. release, when non-nil, is
// signalled per acknowledgement (the closed loop's window).
func (b *binConn) readAcks(stop int, log *ackLog, release chan<- struct{}) {
	for {
		line, err := b.br.ReadSlice('\n')
		now := time.Now()
		if err != nil {
			log.err = err
			if release != nil {
				close(release) // unblock a sender waiting on the window
			}
			return
		}
		switch {
		case bytes.HasPrefix(line, okSync):
			tok := 0
			for _, ch := range line[len(okSync):] {
				if ch < '0' || ch > '9' {
					break
				}
				tok = tok*10 + int(ch-'0')
			}
			if tok < len(log.at) {
				log.at[tok] = now
			}
			if tok == stop {
				return
			}
			if release != nil {
				release <- struct{}{}
			}
		case bytes.HasPrefix(line, []byte("busy")):
			log.busy++
		default:
			log.errs++
		}
	}
}

// alarmClock wakes a goroutine at an instant, to within the kernel's
// high-resolution timer (tens of microseconds), without spinning and without
// holding a P: a timerfd read through the runtime's network poller. The
// alternatives were measured on the box the benchmark was written on and
// all distort the run. time.Sleep fires up to a millisecond late when the
// process is idle (the poller waits in whole milliseconds), which is several
// times the latency being measured. Spinning up to the due time keeps a
// second thread busy, and the box's two vCPUs share one physical core: two
// busy threads each run at half speed, in 4 ms slices. syscall.Nanosleep is
// precise but holds the P in syscall state until sysmon retakes it.
type alarmClock struct {
	f *os.File
}

func newAlarmClock() (*alarmClock, error) {
	const tfdNonblock, tfdCloexec = 0x800, 0x80000 // TFD_NONBLOCK, TFD_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, 1 /* CLOCK_MONOTONIC */, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &alarmClock{f: os.NewFile(fd, "timerfd")}, nil
}

func (a *alarmClock) close() { a.f.Close() }

// waitUntil blocks until t.
func (a *alarmClock) waitUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: one shot after d.
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)}
	conn, err := a.f.SyscallConn()
	if err != nil {
		return err
	}
	var errno syscall.Errno
	if err := conn.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return err
	}
	if errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	_, err = a.f.Read(expirations[:])
	return err
}

// openLoop writes each frame when it is due, whatever the server is doing,
// and records how late each write started. A write that blocks on a full
// socket delays the frames behind it; their lateness shows it.
func openLoop(c net.Conn, frames []frame, start time.Time, late samples) (samples, error) {
	clock, err := newAlarmClock()
	if err != nil {
		return late, err
	}
	defer clock.close()
	for i := range frames {
		due := start.Add(frames[i].due)
		if err := clock.waitUntil(due); err != nil {
			return late, err
		}
		late = append(late, float64(time.Since(due)))
		if _, err := c.Write(frames[i].bytes); err != nil {
			return late, err
		}
	}
	return late, nil
}

// closedLoop writes frames back to back while fewer than window syncs are
// unacknowledged, until the deadline or the frames run out, then writes one
// more sync carrying token len(frames) so the reader knows where to stop. It
// returns how many frames it sent. acked must have capacity window.
func closedLoop(c net.Conn, frames []frame, window int, deadline time.Time, acked <-chan struct{}) (int, error) {
	inflight, sent := 0, 0
	for sent < len(frames) {
		for inflight >= window {
			<-acked
			inflight--
		}
		if !time.Now().Before(deadline) {
			break
		}
		if _, err := c.Write(frames[sent].bytes); err != nil {
			return sent, err
		}
		inflight++
		sent++
	}
	_, err := c.Write(binproto.AppendSync(nil, uint64(len(frames))))
	return sent, err
}

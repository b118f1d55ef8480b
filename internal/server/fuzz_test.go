package server

import (
	"io"
	"net"
	"testing"
	"time"
)

// dispatchSeeds are FuzzDispatch's seed sessions; the wire protocol
// test (internal/analysis/wireproto) requires every wire command to start a line of one of them.
var dispatchSeeds = []string{
	"node a\nlink 0 1\nI 1 0 0 0 100 1\nreach 0 1\nstats\n",
	"I 1 0 0 0 100 1\nR 1\nwhatif 0\n",
	"B 2\nI 1 0 0 0 100 1\nI 2 1 1 0 100 1\n",
	"B 1\nbogus\n",
	"B x\n",
	"B 99999999\n",
	"W reach 0 1\nW waypoint 0 1 2\nW loopfree\nwatch\nI 1 0 0 0 50 1\n",
	"W isolated 0,1 2\nunwatch 0\nunwatch 0\n",
	"watch\nwatch\nquit\n",
	"burst 16 50\nW reach 0 1\nI 1 0 0 0 100 1\nstats\nflush\n", // retired commands: unknown
	"flush\nburst\nburst 0 0\nflush extra\n",
	"W reach 0 1\nwatch\nB 2\nI 9 0 0 0 100 1\nR 9\nstats\n", // a batch whose ops cancel out
	"W reach 0 2\nI 1 0 0 0 100 1\nevents since 0\nevents since 1\nwatch since 0\nR 1\n",
	"events\nevents since\nevents since x\nevents since -1\nevents since 18446744073709551615\n",
	"watch since\nwatch since x\nwatch since 5 extra\nwatch since 2\nwatch\n",
	"W blackholefree sinks=0,1\nW blackholefree sinks=1,0\nunwatch 0\n",
	"W reach 0 1\nunwatch 0\nunwatch 0\nquit\n",
	"trace on\nI 1 0 0 0 100 1\ntrace last 5\ntrace off\ntrace last 1\n",
	"trace\ntrace bogus\ntrace last\ntrace last x\ntrace last -1\ntrace on extra\n",
	"checkpoint\nI 1 0 0 0 100 1\ncheckpoint extra\n",
	"journal since 0\njournal\njournal since\njournal since x\njournal since 18446744073709551615\n",
	"dnbin 1\n",
	"dnbin\ndnbin 2\ndnbin 1 extra\nstats\n",
	"busy\nbusy depth=3\n",
	"\n\n  \n",
	"node\nlink\nI\nR\nreach\nwhatif\nstats extra\nW\nunwatch\n",
	"quit\nI 1 0 0 0 100 1\n",
	"I -1 0 0 0 100 1\nR -1\nI 1 0 0 0 100 -1\nI 1 0 0 0 100 2147483648\nI 1 0 -1 0 100 1\n",
	"I 1 0 -2 0 100 1\nI 1 9 -1 0 100 1\nI 1 4294967296 0 0 100 1\nB 1\nI 1 0 7 0 100 1\n",
}

// FuzzDispatch drives a full protocol session — including the multi-line
// B command, the W invariant grammar, and watch streaming — with
// arbitrary bytes over an in-memory connection. The server must neither
// crash nor hang, whatever the client sends.
func FuzzDispatch(f *testing.F) {
	for _, seed := range dispatchSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // keep iterations fast; huge inputs add no new paths
		}
		s := New()
		// Pre-provision a small topology so numeric ids in fuzz inputs can
		// resolve and exercise deeper paths.
		a := s.Graph().AddNode("a")
		b := s.Graph().AddNode("b")
		c := s.Graph().AddNode("c")
		s.Graph().AddLink(a, b)
		s.Graph().AddLink(b, c)
		s.Graph().AddLink(c, a)

		client, srv := net.Pipe()
		client.SetDeadline(time.Now().Add(5 * time.Second))
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.handle(srv)
		}()
		go io.Copy(io.Discard, client) // drain responses and events

		client.Write(data)
		client.Write([]byte("\nquit\n"))
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("server session hung")
		}
		s.Close()
	})
}

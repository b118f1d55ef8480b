// Package a is the flagged fixture: it declares a guarded connWriter and
// then routes around it, or discards write errors, once in each way.
package a

import (
	"bufio"
	"fmt"
	"io"
	"net"
)

type connWriter struct{ w *bufio.Writer }

func newConnWriter(c net.Conn) *connWriter { return &connWriter{w: bufio.NewWriter(c)} }

func (cw *connWriter) writeLine(s string) error {
	if _, err := fmt.Fprintln(cw.w, s); err != nil {
		return err
	}
	return cw.w.Flush()
}

func (cw *connWriter) sloppy(s string) {
	fmt.Fprintln(cw.w, s)
	cw.w.Flush()
}

func direct(c net.Conn) {
	fmt.Fprintf(c, "hi\n")
	if _, err := c.Write([]byte("x")); err != nil {
		_ = err
	}
}

func wrappedWriteString(c net.Conn) error {
	_, err := bufio.NewWriter(c).WriteString("x")
	return err
}

func wrappedIOWriteString(c net.Conn) error {
	_, err := io.WriteString(bufio.NewWriter(c), "y")
	return err
}

func wrappedFlush(c net.Conn) error {
	return bufio.NewWriterSize(c, 64).Flush()
}

func callers(cw *connWriter) {
	cw.writeLine("dropped")
	_ = cw.writeLine("blanked")
	if err := cw.writeLine("checked"); err != nil {
		_ = err
	}
}

func deferred(c net.Conn) {
	defer c.Write([]byte("bye"))
}

// notConn writes to a plain io.Writer; nothing is flagged.
func notConn(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "fine"); err != nil {
		return err
	}
	return bw.Flush()
}

// Package a is the flagged fixture: the registry, the dispatch switches,
// the README protocol table and the fuzz seeds disagree in one way each.
package a

import "strings"

// protocolCommands lists "get" and "del" out of order and "put" twice;
// "del" is neither in the README table nor in a seed, and the README
// documents a "quux" nothing dispatches.
var protocolCommands = []string{
	"get",
	"del",
	"put",
	"put",
}

type server struct{}

func (s *server) handle(line string) string {
	if fields := strings.Fields(line); len(fields) > 0 && fields[0] == "del" {
		return "ok del"
	}
	return s.dispatch(line)
}

func (s *server) dispatch(cmd string) string {
	switch cmd {
	case "get":
		return "ok get"
	case "put":
		return "ok put"
	case "new": // dispatched but not registered
		return "ok new"
	}
	return "err"
}

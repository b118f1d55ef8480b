package testutil

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestPointerPath: every pointer-bearing kind is found at any depth, and
// scalars, arrays of scalars and uintptr pass.
func TestPointerPath(t *testing.T) {
	type inner struct {
		v    int64
		next *inner
	}
	for _, v := range []any{
		struct{ p *[]int32 }{}, struct{ s []int32 }{}, struct{ s string }{},
		struct{ m map[int32]int32 }{}, struct{ a [4]inner }{}, [2]interface{ Len() int }{},
		struct{ c chan int }{}, struct{ f func() }{}, struct{ u unsafe.Pointer }{},
	} {
		if pointerPath(reflect.TypeOf(v), "v") == "" {
			t.Errorf("%T passes", v)
		}
	}
	if p := pointerPath(reflect.TypeOf(struct {
		a [3]int32
		b uintptr
	}{}), "v"); p != "" {
		t.Error(p)
	}
}

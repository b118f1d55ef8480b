// Package testutil holds checks that several packages' tests share.
package testutil

import (
	"reflect"
	"testing"
)

// PointerFree fails t for each value whose type holds a pointer at any
// depth: a pointer, slice, map, string, chan, func, interface or
// unsafe.Pointer. Millions of long-lived summaries and records sit
// inline in slices; one pointer-bearing field makes every element a GC
// scan target (a 3× GC-time regression when a sketch once grew one).
func PointerFree(t testing.TB, values ...any) {
	t.Helper()
	for _, v := range values {
		typ := reflect.TypeOf(v)
		if path := pointerPath(typ, typ.Name()); path != "" {
			t.Errorf("%s must be pointer-free: %s", typ, path)
		}
	}
}

func pointerPath(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.UnsafePointer:
		return path + " is a " + t.Kind().String()
	case reflect.Array:
		return pointerPath(t.Elem(), path+"[_]")
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if p := pointerPath(t.Field(i).Type, path+"."+t.Field(i).Name); p != "" {
				return p
			}
		}
	}
	return ""
}

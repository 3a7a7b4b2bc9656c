package trace

import (
	"reflect"
	"testing"
	"unsafe"
)

// TestHeaderIsPointerFree: a hosted dataset is a flat array of Headers,
// which a scan reads at 32 bytes a record and the garbage collector
// never scans. A field that grows the header or brings a pointer back
// (a slice, a string, a map...) fails here rather than as a slower
// benchmark.
func TestHeaderIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Header{}); size != 32 {
		t.Errorf("Header is %d bytes, want 32", size)
	}
	if path, ok := pointerIn(reflect.TypeFor[Header](), "Header"); ok {
		t.Errorf("%s holds a pointer: a hosted dataset would be scanned by every GC", path)
	}
	// Packet is Header plus its payload: its header fields are the
	// Header's, promoted.
	if f, ok := reflect.TypeFor[Packet]().FieldByName("Header"); !ok || !f.Anonymous || f.Offset != 0 {
		t.Errorf("Packet does not embed Header first: %+v", f)
	}
}

// pointerIn returns the path of the first pointer-bearing part of t.
func pointerIn(t reflect.Type, path string) (string, bool) {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p, ok := pointerIn(f.Type, path+"."+f.Name); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Array:
		return pointerIn(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return "", false
	}
	return path + " (" + t.Kind().String() + ")", true
}

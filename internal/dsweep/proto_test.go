package dsweep

import (
	"encoding/json"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
)

// TestProtoWireBytes pins the protocol-3 Job and Result payloads — one
// grid index per job, one cell per result — as the sweep layer's
// TestVariantWireBytes pins the spec bytes inside them, and checks that a
// protocol-2 worker is refused at the hello with both versions named.
func TestProtoWireBytes(t *testing.T) {
	for _, c := range []struct {
		body, decoded any
		want          string
	}{
		{jobMsg{ID: 7, Spec: json.RawMessage(wireSpec), Idx: 0}, &jobMsg{},
			`{"id":7,"spec":` + wireSpec + `,"idx":0}`},
		{resultMsg{ID: 7, Cell: json.RawMessage(wireCell)}, &resultMsg{},
			`{"id":7,"cell":` + wireCell + `}`},
		{resultMsg{ID: 8, Cell: json.RawMessage(wireCell), Cache: &CacheCounts{Hits: 3, Misses: 1, Evictions: 2}}, &resultMsg{},
			`{"id":8,"cell":` + wireCell + `,"cache":{"hits":3,"misses":1,"evictions":2}}`},
	} {
		got, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("%T payload:\n got %s\nwant %s", c.body, got, c.want)
		}
		if err := json.Unmarshal([]byte(c.want), c.decoded); err != nil {
			t.Fatal(err)
		}
		if back := reflect.ValueOf(c.decoded).Elem().Interface(); !reflect.DeepEqual(back, c.body) {
			t.Errorf("%s decodes to %+v, want %+v", c.want, back, c.body)
		}
	}

	logs := make(chan string, 4)
	c := NewCoordinator(Options{Logf: func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) }})
	t.Cleanup(func() { c.Close() })
	worker, coord := net.Pipe()
	defer worker.Close()
	done := make(chan struct{})
	go func() { c.Handle(coord); close(done) }()
	if err := writeMsg(worker, MsgHello, helloMsg{Proto: 2, Name: "old"}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := ReadFrame(worker); err != nil || typ != MsgBye {
		t.Fatalf("protocol-2 hello answered (%v, %v), want bye", typ, err)
	}
	<-done
	if msg := <-logs; !strings.Contains(msg, "protocol 2") || !strings.Contains(msg, "want 3") {
		t.Fatalf("refusal %q does not name both protocol versions", msg)
	}
}

// TestRefusedHandshakeLog drives Handle through the two refusals a hello
// can meet and checks the coordinator's log line for each: the refusal
// names the worker once, with no empty "worker :" prefix.
func TestRefusedHandshakeLog(t *testing.T) {
	for _, c := range []struct {
		hello helloMsg
		want  string
	}{
		{helloMsg{Proto: 2, Name: "old/0", Token: "secret"}, `dsweep: worker "old/0" speaks protocol 2, want 3`},
		{helloMsg{Proto: protoVersion, Name: "w/0", Token: "guess"}, `dsweep: worker "w/0" presented a bad token`},
	} {
		logs := make(chan string, 4)
		coordinator := NewCoordinator(Options{Token: "secret", Logf: func(format string, args ...any) { logs <- fmt.Sprintf(format, args...) }})
		worker, conn := net.Pipe()
		done := make(chan struct{})
		go func() { coordinator.Handle(conn); close(done) }()
		if err := writeMsg(worker, MsgHello, c.hello); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := ReadFrame(worker); err != nil || typ != MsgBye {
			t.Fatalf("%+v answered (%v, %v), want bye", c.hello, typ, err)
		}
		<-done
		worker.Close()
		coordinator.Close()
		close(logs)
		var got []string
		for l := range logs {
			got = append(got, l)
		}
		if len(got) != 1 || got[0] != c.want {
			t.Errorf("%+v logged %q, want [%q]", c.hello, got, c.want)
		}
	}
}

package main

import (
	"bytes"
	"os"
	"testing"

	"eleos/internal/daemon"
)

// TestTranscripts replays testdata/daemons/pserverd.script with
// -rpc-workers 1, -epcpp 1 and -data 1 in every syscall mode
// and requires the answer to match the pinned transcript byte for byte.
func TestTranscripts(t *testing.T) {
	script, err := os.ReadFile("../../testdata/daemons/pserverd.script")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"native", "ocall", "rpc", "rpc-async"} {
		t.Run(mode, func(t *testing.T) {
			want, err := os.ReadFile("../../testdata/daemons/pserverd-" + mode + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			d, err := daemon.New(daemon.Flags{EPCppMB: 1, Syscall: mode, Workers: 1}, true)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			h, err := newServer(d, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.Transcript(h, script)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("transcript differs from the pinned one:\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// A request line longer than the simulated socket's buffer is still
// served: it is mirrored as one full-buffer receive instead of a
// receive that comes back short and drops the connection.
func TestLineLongerThanSocketBuffer(t *testing.T) {
	d, err := daemon.New(daemon.Flags{EPCppMB: 1, Syscall: "rpc", Workers: 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	h, err := newServer(d, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	script := append(bytes.Repeat([]byte("x"), 70<<10), "\nQUIT\n"...)
	got, err := d.Transcript(h, script)
	if err != nil {
		t.Fatal(err)
	}
	if want := "ERROR unknown command\n"; string(got) != want {
		t.Fatalf("answer %q, want %q", got, want)
	}
}

package mptcp

import (
	"bytes"
	"testing"
	"time"

	"tcpls/internal/fault"
	"tcpls/internal/sim"
	"tcpls/internal/simtcp"
)

func mbps(n int64) int64 { return n * 1_000_000 }

func TestSingleSubflowTransfer(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	path := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(path, simtcp.Options{CC: "cubic"}, false, 0)

	var got []byte
	server.OnRecv = func(p []byte) { got = append(got, p...) }
	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 7)
	}
	client.Write(data)
	s.RunUntil(30 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("received %d of %d bytes intact=%v", len(got), len(data), bytes.Equal(got, data[:len(got)]))
	}
}

func TestTwoSubflowsAggregateBandwidth(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{CC: "cubic"}, false, 0)
	client.AddSubflow(p2, simtcp.Options{CC: "cubic"}, false, 0)

	server.OnRecv = func(p []byte) {}
	size := 30 << 20
	client.Write(make([]byte, size))
	s.RunUntil(10 * time.Second)
	// 10s at a single 25 Mbps path is at most ~31 MB; with both paths
	// the 30 MiB should be done, and well beyond one path's capacity
	// at the halfway mark.
	s10 := server.Received()
	if s10 < uint64(size) {
		t.Fatalf("received %d of %d in 10s over 2x25 Mbps", s10, size)
	}
	// Verify both paths actually carried data.
	if p1.AtoB.BytesSent == 0 || p2.AtoB.BytesSent == 0 {
		t.Error("one path carried nothing")
	}
	minShare := p1.AtoB.BytesSent
	if p2.AtoB.BytesSent < minShare {
		minShare = p2.AtoB.BytesSent
	}
	if minShare < uint64(size)/4 {
		t.Errorf("unbalanced: p1=%d p2=%d", p1.AtoB.BytesSent, p2.AtoB.BytesSent)
	}
}

func TestBackupModeKeepsSecondPathIdle(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	client.BackupMode = true
	server.BackupMode = true
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{}, false, 0)
	client.AddSubflow(p2, simtcp.Options{}, true, 0)
	server.OnRecv = func(p []byte) {}
	client.Write(make([]byte, 4<<20))
	s.RunUntil(3 * time.Second)
	if p2.AtoB.BytesSent > 10_000 {
		t.Errorf("backup path carried %d bytes while primary alive", p2.AtoB.BytesSent)
	}
	if server.Received() == 0 {
		t.Fatal("no data on primary")
	}
}

func TestFailoverToBackupOnRST(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	client.BackupMode = true
	server.BackupMode = true
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{}, false, 0)
	client.AddSubflow(p2, simtcp.Options{}, true, 0)
	server.OnRecv = func(p []byte) {}
	size := 8 << 20
	client.Write(make([]byte, size))

	// RST the primary at 1s: both ends see it, chunks reinject onto the
	// backup quickly (the paper: "upon reception of a TCP RST, both
	// TCPLS and MPTCP react fast").
	client.Paths = []*sim.Path{p1, p2}
	if err := fault.Play(s, client, fault.Schedule{{At: time.Second, Kind: fault.RST}}); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(30 * time.Second)
	if got := server.Received(); got != uint64(size) {
		t.Fatalf("received %d of %d after RST failover", got, size)
	}
	if p2.AtoB.BytesSent < 1<<20 {
		t.Errorf("backup path carried only %d bytes", p2.AtoB.BytesSent)
	}
}

func TestBlackholeFailoverTakesRTOBackoff(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	client.BackupMode = true
	server.BackupMode = true
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{}, false, 0)
	client.AddSubflow(p2, simtcp.Options{}, true, 0)
	server.OnRecv = func(p []byte) {}
	size := 8 << 20
	client.Write(make([]byte, size))

	var recoveredAt sim.Time
	prev := uint64(0)
	// Sample server progress to find when data resumes post-outage.
	var sample func()
	sample = func() {
		if server.Received() > prev && s.Now() > 1100*time.Millisecond && recoveredAt == 0 {
			recoveredAt = s.Now()
		}
		prev = server.Received()
		s.After(50*time.Millisecond, sample)
	}
	s.After(0, sample)

	s.After(time.Second, func() { p1.SetDown(true) })
	s.RunUntil(40 * time.Second)

	if got := server.Received(); got != uint64(size) {
		t.Fatalf("received %d of %d after blackhole failover", got, size)
	}
	// Detection needs >= 3 backed-off RTOs: recovery must not be
	// instant, and must land within a few seconds (Fig. 8's ~1-2 s
	// MPTCP blackhole recovery).
	if recoveredAt < 1200*time.Millisecond {
		t.Errorf("recovered implausibly fast: %v", recoveredAt)
	}
	if recoveredAt > 6*time.Second {
		t.Errorf("recovery took %v, want a few seconds", recoveredAt)
	}
}

func TestInterfaceConfigDelayDefersSecondPath(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{}, false, 0)
	server.OnRecv = func(p []byte) {}
	client.Write(make([]byte, 60<<20))
	// Second path appears at t=5s with 1.5s kernel config delay
	// (Fig. 11's observed ramp).
	s.After(5*time.Second, func() {
		client.AddSubflow(p2, simtcp.Options{}, false, 1500*time.Millisecond)
	})
	s.RunUntil(6 * time.Second)
	if p2.AtoB.BytesSent > 0 {
		t.Error("second path carried data before the config delay elapsed")
	}
	s.RunUntil(9 * time.Second)
	if p2.AtoB.BytesSent == 0 {
		t.Error("second path still idle after config delay")
	}
}

func TestInOrderDeliveryAcrossSubflows(t *testing.T) {
	s := sim.New()
	client, server := Pair(s)
	// Asymmetric paths force reordering across subflows.
	p1 := sim.NewPath(s, mbps(25), 5*time.Millisecond)
	p2 := sim.NewPath(s, mbps(25), 40*time.Millisecond)
	client.AddSubflow(p1, simtcp.Options{}, false, 0)
	client.AddSubflow(p2, simtcp.Options{}, false, 0)
	var got []byte
	server.OnRecv = func(p []byte) { got = append(got, p...) }
	data := make([]byte, 4<<20)
	for i := range data {
		data[i] = byte(i >> 8)
	}
	client.Write(data)
	s.RunUntil(30 * time.Second)
	if !bytes.Equal(got, data) {
		t.Fatalf("delivery not in order: %d bytes", len(got))
	}
}

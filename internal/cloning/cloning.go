// Package cloning implements ClusterWorX's reliable-multicast disk cloning
// (paper §4) and the unicast baseline it displaced.
//
// Protocol, as the paper describes it:
//
//  1. Multicast burst: the cloning host multicasts every image chunk once;
//     all participating nodes listen and buffer the data locally.
//  2. Acknowledgement phase: nodes acknowledge reception "in a round robin
//     fashion controlled by the cloning host"; a node still lacking image
//     data has the missing parts transferred "on a peer-to-peer base with
//     the master" (unicast repair).
//  3. "As soon as a node gets all the image data, it starts the cloning
//     process locally and reboots itself to operational mode."
//
// Control packets and repairs ride the same lossy network as data, so the
// session retries polls on timeout and re-requests chunks lost during
// repair; the protocol converges for any loss rate below one.
package cloning

import (
	"fmt"
	"sort"
	"time"

	"clusterworx/internal/clock"
	"clusterworx/internal/image"
	"clusterworx/internal/simnet"
)

// Params tunes a cloning session. The zero value selects defaults.
type Params struct {
	// ChunkHeader is per-chunk packet overhead in bytes (default 64).
	ChunkHeader int
	// CtrlSize is the base size of poll/ack packets (default 64).
	CtrlSize int
	// PollTimeout is how long the master waits for an acknowledgement
	// before re-polling (default 250 ms).
	PollTimeout time.Duration
	// MaxNakChunks caps the missing-chunk list in one acknowledgement;
	// the rest is reported on the next round (default 256).
	MaxNakChunks int
	// DiskBandwidth is the node's local image-write rate in bytes/s
	// (default 20 MB/s, a 2002-era IDE disk).
	DiskBandwidth float64
	// RebootTime is the firmware+kernel boot time after flashing
	// (default 3 s — a LinuxBIOS node; pass ~40 s for a legacy BIOS).
	RebootTime time.Duration
}

func (p Params) withDefaults() Params {
	if p.ChunkHeader == 0 {
		p.ChunkHeader = 64
	}
	if p.CtrlSize == 0 {
		p.CtrlSize = 64
	}
	if p.PollTimeout == 0 {
		p.PollTimeout = 250 * time.Millisecond
	}
	if p.MaxNakChunks == 0 {
		p.MaxNakChunks = 256
	}
	if p.DiskBandwidth == 0 {
		p.DiskBandwidth = 20e6
	}
	if p.RebootTime == 0 {
		p.RebootTime = 3 * time.Second
	}
	return p
}

// Wire messages. Chunks carry their index and manifest checksum; payload
// bytes themselves are represented by packet size, not materialized.
type (
	chunkMsg struct {
		ImageID string
		Index   int
		Sum     [32]byte
	}
	pollMsg struct{ Seq int }
	ackMsg  struct {
		Seq      int
		Missing  []int
		Complete bool
	}
	upMsg struct {
		Node    simnet.Addr
		ImageID string
	}
	upAckMsg struct{ ImageID string }
)

// Result summarizes a finished session.
type Result struct {
	Nodes      int
	ImageBytes int64

	// Phase completion offsets from session start, in virtual time.
	BurstDone time.Duration // multicast burst fully transmitted
	AllData   time.Duration // every node holds the complete image
	AllUp     time.Duration // every node flashed, rebooted, operational

	// Wire accounting.
	MulticastBytes int64
	RepairBytes    int64
	CtrlBytes      int64
	Polls          int
	RepairChunks   int
	Rounds         int // round-robin passes over the node list

	NodeUp map[simnet.Addr]time.Duration
}

// Client is the node-side cloning agent. Attach one per participating
// node; it owns the endpoint's receive handler for the session.
type Client struct {
	clk    *clock.Clock
	ep     *simnet.Endpoint
	params Params
	img    *image.Image

	have       []bool
	haveCount  int
	flashBytes int64 // bytes the flash step must write (the delta)
	sumErr     error
	flashing   bool
	opAt       time.Duration
	up         bool
	onUp       func()

	master  simnet.Addr // where to report operational state, if set
	upAcked bool
	upTimer *clock.Timer
}

// NewClient prepares a node to receive img. The client starts listening
// immediately.
func NewClient(clk *clock.Clock, ep *simnet.Endpoint, img *image.Image, params Params) *Client {
	return newClient(clk, ep, img, nil, params)
}

// newClient prepares a node that already holds old (nil: nothing) for an
// incremental update to img (§4: "update files or packages on the nodes
// in parallel"): chunks whose checksum already exists locally are marked
// present, so only the delta crosses the network and is written to disk.
func newClient(clk *clock.Clock, ep *simnet.Endpoint, img, old *image.Image, params Params) *Client {
	c := &Client{
		clk:        clk,
		ep:         ep,
		params:     params.withDefaults(),
		img:        img,
		have:       make([]bool, img.NumChunks()),
		flashBytes: img.Size,
	}
	if old != nil {
		existing := make(map[[32]byte]struct{}, old.NumChunks())
		for i := 0; i < old.NumChunks(); i++ {
			existing[old.ChunkSum(i)] = struct{}{}
		}
		var deltaBytes int64
		for i := range c.have {
			if _, ok := existing[img.ChunkSum(i)]; ok {
				c.have[i] = true
				c.haveCount++
			} else {
				deltaBytes += int64(img.ChunkLen(i))
			}
		}
		c.flashBytes = deltaBytes
	}
	ep.OnReceive(c.handle)
	if c.Complete() {
		// Empty delta: nothing to transfer, but the node still reboots
		// into the new (identical-content, new-version) image.
		c.startFlash()
	}
	return c
}

// OnUp installs a callback invoked when the node reboots to operational.
func (c *Client) OnUp(fn func()) { c.onUp = fn }

// ReportUpTo makes the client notify master when it becomes operational,
// retrying until acknowledged — the report must survive a lossy network.
func (c *Client) ReportUpTo(master simnet.Addr) { c.master = master }

// Complete reports whether all image data has been received.
func (c *Client) Complete() bool { return c.haveCount == len(c.have) }

// Operational reports whether the node has flashed and rebooted.
func (c *Client) Operational() bool { return c.up }

// Verified reports whether every received chunk matched the manifest.
func (c *Client) Verified() error { return c.sumErr }

// HaveCount returns the number of chunks received so far.
func (c *Client) HaveCount() int { return c.haveCount }

func (c *Client) handle(pkt simnet.Packet) {
	switch m := pkt.Payload.(type) {
	case chunkMsg:
		c.acceptChunk(m)
	case pollMsg:
		c.replyPoll(pkt.Src, m)
	case upAckMsg:
		// Sessions echo the image being acknowledged: an ack meant for a
		// previous session's client (still in flight when this client took
		// over the endpoint) must not silence this one.
		if m.ImageID != c.img.ID() {
			return
		}
		c.upAcked = true
		if c.upTimer != nil {
			c.upTimer.Stop()
		}
	}
}

func (c *Client) acceptChunk(m chunkMsg) {
	if m.ImageID != c.img.ID() || m.Index < 0 || m.Index >= len(c.have) {
		return // stale session or corrupt index: ignore
	}
	if c.have[m.Index] {
		return // duplicate (e.g. repair raced a re-request)
	}
	if m.Sum != c.img.ChunkSum(m.Index) {
		if c.sumErr == nil {
			c.sumErr = fmt.Errorf("cloning: chunk %d checksum mismatch", m.Index)
		}
		return
	}
	c.have[m.Index] = true
	c.haveCount++
	if c.Complete() && !c.flashing {
		c.startFlash()
	}
}

func (c *Client) replyPoll(master simnet.Addr, m pollMsg) {
	if c.Complete() {
		c.ep.Send(master, ackMsg{Seq: m.Seq, Complete: true}, c.params.CtrlSize)
		return
	}
	missing := make([]int, 0, c.params.MaxNakChunks)
	for i, ok := range c.have {
		if !ok {
			missing = append(missing, i)
			if len(missing) == c.params.MaxNakChunks {
				break
			}
		}
	}
	size := c.params.CtrlSize + 4*len(missing)
	c.ep.Send(master, ackMsg{Seq: m.Seq, Missing: missing}, size)
}

// startFlash writes the received data to the local disk and reboots, per
// the paper's step 3. A full clone writes the whole image; an incremental
// update writes only the delta. The node is operational RebootTime after
// the write.
func (c *Client) startFlash() {
	c.flashing = true
	writeTime := time.Duration(float64(c.flashBytes) / c.params.DiskBandwidth * float64(time.Second))
	c.clk.AfterFunc(writeTime+c.params.RebootTime, func() {
		c.up = true
		c.opAt = c.clk.Now()
		if c.master != "" {
			c.sendUp()
		}
		if c.onUp != nil {
			c.onUp()
		}
	})
}

// sendUp reports operational state and re-arms a retry until acked.
func (c *Client) sendUp() {
	if c.upAcked {
		return
	}
	c.ep.Send(c.master, upMsg{Node: c.ep.Addr(), ImageID: c.img.ID()}, c.params.CtrlSize)
	c.upTimer = c.clk.AfterFunc(2*c.params.PollTimeout, c.sendUp)
}

// Session is the master-side state machine.
type Session struct {
	clk    *clock.Clock
	ep     *simnet.Endpoint
	group  string
	img    *image.Image
	params Params
	nodes  []simnet.Addr

	start     time.Duration
	sendList  []int // chunk indexes to multicast (all for a full clone)
	nextSend  int
	burstDone time.Duration

	pending   []simnet.Addr // round-robin queue of incomplete nodes
	pollSeq   int
	pollTimer *clock.Timer
	polled    simnet.Addr
	complete  map[simnet.Addr]bool
	dataDone  bool

	res      Result
	upCount  int
	onFinish func(Result)
	finished bool
}

// newSession prepares a session from the master endpoint to nodes, which
// must all have joined group: only the chunks of img absent from old (nil:
// every chunk) are multicast. Clients must be made by newClient against
// the same old image. A Job makes both.
func newSession(clk *clock.Clock, ep *simnet.Endpoint, group string, img, old *image.Image, nodes []simnet.Addr, params Params) *Session {
	s := &Session{
		clk:      clk,
		ep:       ep,
		group:    group,
		img:      img,
		sendList: img.Diff(old),
		params:   params.withDefaults(),
		nodes:    append([]simnet.Addr(nil), nodes...),
		complete: make(map[simnet.Addr]bool, len(nodes)),
	}
	s.res.Nodes = len(nodes)
	s.res.ImageBytes = img.Size
	s.res.NodeUp = make(map[simnet.Addr]time.Duration, len(nodes))
	ep.OnReceive(s.handle)
	return s
}

// OnFinish installs a completion callback delivering the final Result.
func (s *Session) OnFinish(fn func(Result)) { s.onFinish = fn }

// Start begins the multicast burst.
func (s *Session) Start() {
	s.start = s.clk.Now()
	s.sendNextChunk()
}

// Done reports whether every node is operational.
func (s *Session) Done() bool { return s.finished }

// Result returns the session summary; valid once Done.
func (s *Session) Result() Result { return s.res }

func (s *Session) sendNextChunk() {
	if s.nextSend >= len(s.sendList) {
		s.burstDone = s.clk.Now()
		s.res.BurstDone = s.burstDone - s.start
		s.startRepairPhase()
		return
	}
	i := s.sendList[s.nextSend]
	s.nextSend++
	size := s.img.ChunkLen(i) + s.params.ChunkHeader
	msg := chunkMsg{ImageID: s.img.ID(), Index: i, Sum: s.img.ChunkSum(i)}
	txDone := s.ep.Multicast(s.group, msg, size)
	s.res.MulticastBytes += int64(size)
	s.clk.At(txDone, s.sendNextChunk)
}

func (s *Session) startRepairPhase() {
	s.pending = append(s.pending[:0], s.nodes...)
	if len(s.pending) == 0 {
		s.allData()
		return
	}
	s.res.Rounds = 1
	s.pollNext()
}

// pollNext polls the head of the round-robin queue.
func (s *Session) pollNext() {
	for len(s.pending) > 0 && s.complete[s.pending[0]] {
		s.pending = s.pending[1:]
	}
	if len(s.pending) == 0 {
		// Round over: requeue incomplete nodes for another pass.
		for _, n := range s.nodes {
			if !s.complete[n] {
				s.pending = append(s.pending, n)
			}
		}
		if len(s.pending) == 0 {
			s.allData()
			return
		}
		s.res.Rounds++
	}
	node := s.pending[0]
	s.pending = s.pending[1:]
	s.polled = node
	s.pollSeq++
	seq := s.pollSeq
	s.ep.Send(node, pollMsg{Seq: seq}, s.params.CtrlSize)
	s.res.Polls++
	s.res.CtrlBytes += int64(s.params.CtrlSize)
	s.pollTimer = s.clk.AfterFunc(s.params.PollTimeout, func() {
		// Acknowledgement lost: put the node back and move on.
		s.pending = append(s.pending, node)
		s.pollNext()
	})
}

func (s *Session) handle(pkt simnet.Packet) {
	switch m := pkt.Payload.(type) {
	case ackMsg:
		s.handleAck(pkt.Src, pkt.Size, m)
	case upMsg:
		s.handleUp(m)
	}
}

func (s *Session) handleAck(src simnet.Addr, size int, m ackMsg) {
	if m.Seq != s.pollSeq || src != s.polled {
		return // stale acknowledgement from a timed-out poll
	}
	if s.pollTimer != nil {
		s.pollTimer.Stop()
	}
	s.res.CtrlBytes += int64(size)
	if m.Complete {
		s.complete[src] = true
		if len(s.complete) == len(s.nodes) {
			s.allData()
			return
		}
		s.pollNext()
		return
	}
	// Unicast the missing chunks, then move round-robin to the next node;
	// this node is re-polled on a later pass.
	var last time.Duration
	for _, idx := range m.Missing {
		if idx < 0 || idx >= s.img.NumChunks() {
			continue
		}
		sz := s.img.ChunkLen(idx) + s.params.ChunkHeader
		last = s.ep.Send(src, chunkMsg{ImageID: s.img.ID(), Index: idx, Sum: s.img.ChunkSum(idx)}, sz)
		s.res.RepairBytes += int64(sz)
		s.res.RepairChunks++
	}
	s.pending = append(s.pending, src)
	if last > s.clk.Now() {
		s.clk.At(last, s.pollNext)
	} else {
		s.pollNext()
	}
}

func (s *Session) allData() {
	if s.dataDone {
		return
	}
	s.dataDone = true
	s.res.AllData = s.clk.Now() - s.start
}

func (s *Session) handleUp(m upMsg) {
	// Always acknowledge — echoing the reported image so a straggling
	// client from an earlier session stops retrying — but only count
	// reports for THIS session's image: a late duplicate from a previous
	// clone must not satisfy this one.
	s.ep.Send(m.Node, upAckMsg{ImageID: m.ImageID}, s.params.CtrlSize)
	if m.ImageID != s.img.ID() {
		return
	}
	if _, dup := s.res.NodeUp[m.Node]; dup {
		return
	}
	s.res.NodeUp[m.Node] = s.clk.Now() - s.start
	s.upCount++
	if s.upCount == len(s.nodes) {
		s.res.AllUp = s.clk.Now() - s.start
		s.finished = true
		if s.onFinish != nil {
			s.onFinish(s.res)
		}
	}
}

// Target is one node a Job reimages: its endpoint, the parameters its
// client flashes and reboots with, and what runs once it is operational.
type Target struct {
	Ep     *simnet.Endpoint
	Params Params
	OnUp   func() // nil: nothing
}

// Job is one multicast clone (Old nil) or update of Img from Master to
// Targets, with every link of the job dropping packets with probability
// Loss.
type Job struct {
	Clk      *clock.Clock
	Net      *simnet.Network
	Master   *simnet.Endpoint
	Group    string // the job's own multicast group
	Img, Old *image.Image
	Targets  []Target
	Loss     float64
	Params   Params
}

// Start wires the job and starts its session now: the targets join the
// group and get a client each that reports to the master, and the job's
// links — the master's and the targets' — take the job's loss, so traffic
// elsewhere on the fabric keeps whatever loss it has. Once every node is
// operational the targets leave the group, the links' loss returns to 0,
// and done (if not nil) runs with the result.
func (j Job) Start(done func(Result)) *Session {
	addrs := make([]simnet.Addr, len(j.Targets))
	for i, t := range j.Targets {
		addrs[i] = t.Ep.Addr()
		j.Net.Join(j.Group, addrs[i])
	}
	sess := newSession(j.Clk, j.Master, j.Group, j.Img, j.Old, addrs, j.Params)
	for _, t := range j.Targets {
		c := newClient(j.Clk, t.Ep, j.Img, j.Old, t.Params)
		c.ReportUpTo(j.Master.Addr())
		c.OnUp(t.OnUp)
		t.Ep.SetLoss(j.Loss)
	}
	j.Master.SetLoss(j.Loss)
	sess.OnFinish(func(res Result) {
		for _, t := range j.Targets {
			j.Net.Leave(j.Group, t.Ep.Addr())
			t.Ep.SetLoss(0)
		}
		j.Master.SetLoss(0)
		if done != nil {
			done(res)
		}
	})
	sess.Start()
	return sess
}

// fabric builds a fresh Fast-Ethernet fabric whose loss draws follow seed,
// with a master and n nodes node000..node(n-1).
func fabric(n int, seed int64) (*clock.Clock, *simnet.Network, *simnet.Endpoint, []*simnet.Endpoint) {
	clk := clock.New()
	net := simnet.New(clk, 100*time.Microsecond)
	net.Seed(seed)
	master := net.Attach("master", simnet.FastEthernet)
	eps := make([]*simnet.Endpoint, n)
	for i := range eps {
		eps[i] = net.Attach(simnet.Addr(fmt.Sprintf("node%03d", i)), simnet.FastEthernet)
	}
	return clk, net, master, eps
}

// RunMulticast builds a fresh Fast-Ethernet fabric with n nodes, clones
// img to all of them with the multicast protocol, and returns the result.
// loss is the per-receiver packet drop probability; seed makes it
// reproducible.
func RunMulticast(img *image.Image, n int, loss float64, seed int64, params Params) Result {
	return RunUpdate(nil, img, n, loss, seed, params)
}

// RunUnicast clones img to n nodes with the pre-multicast baseline: the
// master streams the full image to each node in turn over unicast,
// repairing per-node before moving on. Flash and reboot overlap with the
// next node's transfer, as they would in practice.
func RunUnicast(img *image.Image, n int, loss float64, seed int64, params Params) Result {
	clk, net, master, eps := fabric(n, seed)
	params = params.withDefaults()

	res := Result{Nodes: n, ImageBytes: img.Size, NodeUp: make(map[simnet.Addr]time.Duration, n)}
	upCount := 0
	addrs := make([]simnet.Addr, n)
	for i, ep := range eps {
		addrs[i] = ep.Addr()
		NewClient(clk, ep, img, params).ReportUpTo("master")
	}
	net.SetLoss(loss)

	u := &unicastMaster{
		clk: clk, ep: master, img: img, params: params,
		queue: addrs, res: &res, upCount: &upCount,
	}
	master.OnReceive(u.handle)
	u.startNode()
	clk.RunUntilIdle()
	if upCount != n {
		panic("cloning: unicast session did not converge")
	}
	return res
}

// unicastMaster streams the image node by node.
type unicastMaster struct {
	clk     *clock.Clock
	ep      *simnet.Endpoint
	img     *image.Image
	params  Params
	queue   []simnet.Addr
	current simnet.Addr
	chunk   int
	seq     int
	timer   *clock.Timer
	res     *Result
	upCount *int
	start   time.Duration
}

func (u *unicastMaster) startNode() {
	if len(u.queue) == 0 {
		u.res.AllData = u.clk.Now() - u.start
		return
	}
	u.current = u.queue[0]
	u.queue = u.queue[1:]
	u.chunk = 0
	u.sendNext()
}

func (u *unicastMaster) sendNext() {
	if u.chunk >= u.img.NumChunks() {
		u.poll()
		return
	}
	i := u.chunk
	u.chunk++
	size := u.img.ChunkLen(i) + u.params.ChunkHeader
	txDone := u.ep.Send(u.current, chunkMsg{ImageID: u.img.ID(), Index: i, Sum: u.img.ChunkSum(i)}, size)
	u.res.RepairBytes += int64(size) // unicast baseline: all bytes are per-node
	u.clk.At(txDone, u.sendNext)
}

func (u *unicastMaster) poll() {
	u.seq++
	seq := u.seq
	u.ep.Send(u.current, pollMsg{Seq: seq}, u.params.CtrlSize)
	u.res.Polls++
	u.res.CtrlBytes += int64(u.params.CtrlSize)
	u.timer = u.clk.AfterFunc(u.params.PollTimeout, u.poll)
}

func (u *unicastMaster) handle(pkt simnet.Packet) {
	switch m := pkt.Payload.(type) {
	case ackMsg:
		if m.Seq != u.seq || pkt.Src != u.current {
			return
		}
		if u.timer != nil {
			u.timer.Stop()
		}
		u.res.CtrlBytes += int64(pkt.Size)
		if m.Complete {
			u.startNode()
			return
		}
		var last time.Duration
		for _, idx := range m.Missing {
			sz := u.img.ChunkLen(idx) + u.params.ChunkHeader
			last = u.ep.Send(pkt.Src, chunkMsg{ImageID: u.img.ID(), Index: idx, Sum: u.img.ChunkSum(idx)}, sz)
			u.res.RepairBytes += int64(sz)
			u.res.RepairChunks++
		}
		if last > u.clk.Now() {
			u.clk.At(last, u.poll)
		} else {
			u.poll()
		}
	case upMsg:
		u.ep.Send(m.Node, upAckMsg{ImageID: m.ImageID}, u.params.CtrlSize)
		if m.ImageID != u.img.ID() {
			return
		}
		if _, dup := u.res.NodeUp[m.Node]; dup {
			return
		}
		u.res.NodeUp[m.Node] = u.clk.Now() - u.start
		*u.upCount++
		if *u.upCount == u.res.Nodes {
			u.res.AllUp = u.clk.Now() - u.start
		}
	}
}

// RunUpdate distributes the delta between old and img to n nodes that
// already hold old (nil: nothing — a full clone), over a fresh Fast-Ethernet
// fabric — the §4 parallel package/kernel-update path.
func RunUpdate(old, img *image.Image, n int, loss float64, seed int64, params Params) Result {
	clk, net, master, eps := fabric(n, seed)
	params = params.withDefaults()
	targets := make([]Target, n)
	for i, ep := range eps {
		targets[i] = Target{Ep: ep, Params: params}
	}
	sess := Job{Clk: clk, Net: net, Master: master, Group: "clone", Img: img, Old: old, Targets: targets, Loss: loss, Params: params}.Start(nil)
	clk.RunUntilIdle()
	if !sess.Done() {
		panic("cloning: multicast session did not converge")
	}
	return sess.Result()
}

// SortedUpTimes returns node completion offsets in ascending order.
func (r Result) SortedUpTimes() []time.Duration {
	out := make([]time.Duration, 0, len(r.NodeUp))
	for _, d := range r.NodeUp {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalBytes returns all bytes the master transmitted.
func (r Result) TotalBytes() int64 {
	return r.MulticastBytes + r.RepairBytes + r.CtrlBytes
}

package main

import (
	"fmt"
	"time"
)

// layers are the span-name prefixes whose self time the traced run
// reports, in call order: set-up (client, endorser, orderer), the replay
// harness and the layers it calls, and the single-layer side
// measurements.
var layers = []string{
	"setup", "client", "orderer", "endorser",
	"replay", "gossip", "peer", "bmacproto", "core",
	"ledger", "statedb", "block", "pipeline", "fabcrypto",
}

// perLayer computes the traced run's metrics. The names are listed with
// the end-to-end metric each should move in README.md.
func (b *bench) perLayer() error {
	seq, par, hw := b.ps[pathSeq], b.ps[pathPar], b.ps[pathBMac]
	us, msu := time.Microsecond, time.Millisecond

	// Wall-clock end-to-end figures: what a user of an idle machine sees,
	// too unsteady on a shared host to gate.
	b.put("setup.wall_s", median(millis(b.build))/1000, "s")
	for _, path := range paths {
		ps := b.ps[path]
		lat := millis(ps.lat)
		b.put(path+".tps", median(ps.passTPS), "tx/s")
		b.put(path+".block_p50_ms", percentile(lat, 50), "ms")
		b.put(path+".block_p95_ms", percentile(lat, 95), "ms")
		// The CPU-time tail: whether a block paid for a garbage collection
		// decides it, which makes it too bimodal to gate.
		b.put(path+".block_cpu_p95_ms", percentile(millis(ps.cpu), 95), "ms")
	}
	b.put("recover_s", median(millis(b.rs.times))/1000, "s")

	sig, cert := seq.sig, seq.cert
	sig.add(par.sig)
	cert.add(par.cert)
	b.put("fabcrypto.verifies_per_tx", ratio(int(seq.sig.misses), seq.txs), "count")
	b.put("fabcrypto.sig_hit_ratio", sig.ratio(), "ratio")
	b.put("fabcrypto.cert_hit_ratio", cert.ratio(), "ratio")
	b.put("fabcrypto.verify_us", meanMicros(b.ls.verify), "us")

	b.put("validator.block_us", perUnit(seq.bd.Total, seq.blocks, us), "us")
	b.put("validator.vscc_us", perUnit(seq.bd.VerifyVSCC, seq.blocks, us), "us")
	b.put("validator.parse_us", perUnit(seq.bd.Unmarshal, seq.blocks, us), "us")
	b.put("validator.mvcc_us", perUnit(seq.bd.MVCC, seq.blocks, us), "us")
	b.put("validator.commit_us", perUnit(seq.bd.LedgerCommit, seq.blocks, us), "us")
	b.put("validator.parse_hit_ratio", seq.parse.ratio(), "ratio")

	b.put("pipeline.block_us", perUnit(par.bd.Total, par.blocks, us), "us")
	b.put("pipeline.critical_path_ratio", b.ls.graphRatio/float64(max(b.ls.graphs, 1)), "ratio")
	b.put("pipeline.edges_per_tx", ratio(b.ls.edges, b.ls.txs), "count")

	b.put("peer.commit_us", perUnit(seq.commit, seq.blocks, us), "us")
	b.put("peer.overhead_us", perUnit(seq.commit-seq.bd.Total, seq.blocks, us), "us")
	b.put("peer.recover_ms", median(millis(b.rs.times)), "ms")
	replayed := make([]float64, len(b.rs.replayed))
	for i, n := range b.rs.replayed {
		replayed[i] = float64(n)
	}
	b.put("peer.replayed_blocks", median(replayed), "count")

	var txs, gossipBytes, bmacBytes, blocks, packets int
	for _, c := range b.chains {
		txs += c.txs
		gossipBytes += c.gossipBytes
		bmacBytes += c.bmacBytes
		blocks += len(c.packets)
		for _, p := range c.packets {
			packets += len(p)
		}
	}
	b.put("gossip.read_us", perUnit(seq.read, seq.blocks, us), "us")
	b.put("gossip.bytes_per_tx", ratio(gossipBytes, txs), "B")
	b.put("block.marshal_us", meanMicros(b.ls.marshal), "us")
	b.put("block.unmarshal_us", meanMicros(b.ls.unmarshal), "us")
	b.put("block.allocs_per_tx", ratio(int(b.ls.unmarshalAllocs), b.ls.unmarshalTxs), "count")

	b.put("statedb.reads_per_tx", ratio(seq.reads, seq.txs), "count")
	b.put("statedb.writes_per_tx", ratio(seq.writes, seq.txs), "count")
	b.put("statedb.checkpoint_ms", median(millis(b.rs.checkpoint)), "ms")
	b.put("statedb.restore_ms", median(millis(b.rs.restore)), "ms")

	b.put("ledger.commit_us", meanMicros(b.ls.ledgerCommit), "us")
	b.put("ledger.bytes_per_tx", ratio(int(b.ls.ledgerBytes), b.ls.ledgerTxs), "B")
	b.put("ledger.open_ms", median(millis(b.rs.open)), "ms")
	b.put("ledger.get_us", meanMicros(b.rs.get), "us")

	b.put("bmacproto.encode_us", meanMicros(b.bs.encode), "us")
	b.put("bmacproto.receive_us", perUnit(hw.receive, hw.blocks, us), "us")
	b.put("bmacproto.packets_per_block", ratio(packets, blocks), "count")
	b.put("bmacproto.bytes_per_tx", ratio(bmacBytes, txs), "B")
	b.put("core.verify_us", perUnit(hw.hw.BlockVerifyTime, hw.blocks, us), "us")
	b.put("core.validate_us", perUnit(hw.hw.ValidateTime, hw.blocks, us), "us")
	b.put("core.mvcc_us", perUnit(hw.hw.MVCCCommitTime, hw.blocks, us), "us")
	b.put("core.ends_verified_per_tx", ratio(hw.hw.EndsVerified, hw.hw.TxCount), "count")
	b.put("core.ends_skipped_ratio", ratio(hw.hw.EndsSkipped, hw.hw.EndsVerified+hw.hw.EndsSkipped), "ratio")

	b.put("client.submit_us", meanMicros(b.bs.submit), "us")
	b.put("endorser.process_us", meanMicros(b.ls.process), "us")
	b.put("orderer.cut_ms", meanMicros(b.bs.cut)/1000, "ms")
	self := selfTimes(b.tr.snapshot())
	for _, l := range layers {
		b.put("self_ms."+l, float64(self[l])/float64(msu), "ms")
	}
	b.put("trace.overhead_ratio", b.traced.Seconds()/b.untraced.Seconds()-1, "ratio")
	spans := b.tr.snapshot()
	b.put("trace.spans", float64(len(spans)), "count")
	path := traceFile(b.name, b.seed)
	if err := writeJSONL(path, spans); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(b.out, "trace: %d spans written to %s\n", len(spans), path)
	return nil
}

//! Robustness under adverse network conditions: the IPsec service must
//! fail *closed* — a lossy/corrupting WAN reduces goodput but never
//! delivers unauthentic bytes — and no frame, however mangled, panics
//! a node or escapes its ledger.

use std::net::Ipv4Addr;

use proptest::prelude::*;
use un_bench::{build_ipsec_node, lan_spec, GatewayPeer};
use un_core::UniversalNode;
use un_nffg::NfFgBuilder;
use un_obs::DropReason;
use un_packet::mutate::{mutants, refilled, Mutation};
use un_packet::{Packet, PacketBuilder};
use un_sim::mem::mb;
use un_traffic::{FaultInjector, FrameSpec, StreamGenerator};

#[test]
fn corrupted_wan_frames_never_deliver_wrong_bytes() {
    // The security property: corruption is either harmless (L2/outer-IP
    // header bits outside the authenticated ESP payload — a real NIC's
    // FCS would catch those) or *rejected*. A corrupted ESP payload must
    // never decrypt.
    const ESP_START: usize = 14 + 20; // Ethernet + outer IPv4 header

    let (mut node, _) = build_ipsec_node("native");
    let spec = lan_spec(&node);
    let mut generator = StreamGenerator::new(spec, 1000);
    let mut faults = FaultInjector::new(0.0, 1.0, 7); // corrupt everything
    let mut gateway = GatewayPeer::new();

    let mut payload_corruptions = 0u64;
    for _ in 0..100 {
        let io = node.inject("eth0", generator.next_frame());
        for (_, wire) in io.emitted {
            let pristine = wire.data().to_vec();
            if let (Some(frame), _) = faults.apply(wire) {
                let payload_intact = frame.data()[ESP_START..] == pristine[ESP_START..];
                if !payload_intact {
                    payload_corruptions += 1;
                }
                let delivered = gateway.receive(&frame);
                if delivered > 0 {
                    assert!(
                        payload_intact,
                        "a frame with corrupted ESP payload was delivered"
                    );
                }
            }
        }
    }
    assert_eq!(faults.corrupted, 100);
    assert!(payload_corruptions > 50, "most flips land in the payload");
    // Every payload corruption must be rejected. A header-only flip is
    // normally tolerated (outside the authenticated bytes), but one
    // landing in the outer framing fields (IHL/length/protocol) also
    // rejects — that is still failing *closed*, never open.
    assert!(
        gateway.rejected >= payload_corruptions,
        "a corrupted ESP payload slipped through ({} rejected, {} payload flips)",
        gateway.rejected,
        payload_corruptions
    );
    assert_eq!(
        gateway.accepted + gateway.rejected,
        100,
        "every surviving frame has a verdict"
    );
}

#[test]
fn lossy_wan_degrades_goodput_but_preserves_integrity() {
    let (mut node, _) = build_ipsec_node("native");
    let spec = lan_spec(&node);
    let mut generator = StreamGenerator::new(spec, 1000);
    let mut faults = FaultInjector::new(0.3, 0.1, 11);
    let mut gateway = GatewayPeer::new();

    let total = 500u64;
    for _ in 0..total {
        let io = node.inject("eth0", generator.next_frame());
        for (_, wire) in io.emitted {
            if let (Some(frame), _) = faults.apply(wire) {
                gateway.receive(&frame);
            }
        }
    }
    // ~30% dropped, ~7% (0.7 × 0.1) corrupted-and-rejected, rest good.
    let good_rate = gateway.accepted as f64 / total as f64;
    assert!(
        (0.50..0.80).contains(&good_rate),
        "goodput ratio {good_rate} outside the expected band"
    );
    assert_eq!(
        gateway.accepted + gateway.rejected + faults.dropped,
        total,
        "every frame accounted: delivered, rejected or dropped"
    );
    // Corruption is caught unless the flip landed outside the
    // authenticated bytes (the ~34-byte outer L2/IP header of a ~1kB
    // frame), which ESP cannot and need not detect: those frames
    // deliver pristine inner payloads. The miss rate is bounded by the
    // header/frame size ratio.
    assert!(
        gateway.rejected <= faults.corrupted,
        "rejects only corrupt frames"
    );
    assert!(
        gateway.rejected * 10 >= faults.corrupted * 8,
        "almost all corruption caught ({} of {})",
        gateway.rejected,
        faults.corrupted
    );
}

#[test]
fn gateway_recovers_after_fault_burst() {
    // After a burst of drops/corruption, clean traffic flows again —
    // the anti-replay window must not have been poisoned.
    let (mut node, _) = build_ipsec_node("native");
    let spec = lan_spec(&node);
    let mut generator = StreamGenerator::new(spec, 1000);
    let mut gateway = GatewayPeer::new();

    // Phase 1: fault burst.
    let mut faults = FaultInjector::new(0.5, 0.5, 13);
    for _ in 0..100 {
        let io = node.inject("eth0", generator.next_frame());
        for (_, wire) in io.emitted {
            if let (Some(frame), _) = faults.apply(wire) {
                gateway.receive(&frame);
            }
        }
    }
    // Phase 2: clean channel; everything must deliver.
    let before = gateway.accepted;
    for _ in 0..50 {
        let io = node.inject("eth0", generator.next_frame());
        for (_, wire) in io.emitted {
            assert!(
                gateway.receive(&wire) > 0,
                "clean frame rejected after burst"
            );
        }
    }
    assert_eq!(gateway.accepted - before, 50);
}

/// `lan → br1 → br2 → wan` on one node, and the frames it carries.
fn two_bridges() -> (UniversalNode, FrameSpec) {
    let mut node = UniversalNode::new("n1", mb(2048));
    node.add_physical_port("eth0");
    node.add_physical_port("eth1");
    let chain = NfFgBuilder::new("g1", "two bridges")
        .interface_endpoint("lan", "eth0")
        .interface_endpoint("wan", "eth1")
        .nf("br1", "bridge", 2)
        .nf("br2", "bridge", 2)
        .chain("lan", &["br1", "br2"], "wan")
        .build();
    node.deploy(&chain).unwrap();
    let spec = FrameSpec::udp(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(192, 0, 2, 9),
        5000,
        5001,
    );
    (node, spec)
}

/// Every frame handed to `node`, and every copy fan-out minted, left
/// on a port, was absorbed or died for a typed reason.
fn balanced(node: &UniversalNode, sent: u64, emitted: u64) -> bool {
    let ledger = node.frame_ledger();
    let dropped: u64 = DropReason::ALL.iter().map(|r| ledger.drops(*r)).sum();
    sent + ledger.fanout_extra == emitted + ledger.absorbed + dropped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hostile frames never panic a node. A genuine LAN frame of the
    /// Table-1 IPsec CPE or of a two-bridge chain is mangled by the
    /// generator the host's own property uses (cut short, a byte
    /// flipped, noise spliced in, IPv4 total length or IHL overwritten,
    /// each also with its header checksum refilled) and handed to
    /// `UniversalNode::inject`: the classifier extracts a key from it,
    /// and what survives crosses the NF. After every frame the node's
    /// ledger balances, and a genuine frame still crosses afterwards.
    #[test]
    fn a_hostile_frame_never_panics_a_node(
        ipsec in 0usize..2,
        payload in prop::collection::vec(any::<u8>(), 0..200),
        at in any::<u16>(),
        flip in 1u8..=255,
        cut in any::<u16>(),
        noise in prop::collection::vec(any::<u8>(), 1..40),
        total_len in any::<u16>(),
        ihl in 0u8..16,
    ) {
        let (mut node, spec) = if ipsec == 1 {
            let (node, _) = build_ipsec_node("native");
            let spec = lan_spec(&node);
            (node, spec)
        } else {
            two_bridges()
        };
        let genuine = || -> Packet {
            PacketBuilder::new()
                .ethernet(spec.eth_src, spec.eth_dst)
                .ipv4(spec.ip_src, spec.ip_dst)
                .udp(spec.sport, spec.dport)
                .payload(&payload)
                .build()
        };
        let m = Mutation { at, flip, cut, noise, total_len, ihl };
        let (mut sent, mut emitted) = (0, 0);
        for mutant in mutants(&genuine(), &m) {
            for fed in [mutant.clone(), refilled(mutant)] {
                sent += 1;
                emitted += node.inject("eth0", fed).emitted.len() as u64;
                prop_assert!(balanced(&node, sent, emitted), "after frame {sent}");
            }
        }
        let io = node.inject("eth0", genuine());
        prop_assert_eq!(io.emitted.len(), 1, "the genuine frame crosses");
        prop_assert!(balanced(&node, sent + 1, emitted + 1));
    }
}

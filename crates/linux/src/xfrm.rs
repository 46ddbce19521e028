//! Kernel IPsec (XFRM): per-namespace SAD/SPD and the ESP transform.
//!
//! This is where the paper's headline NF does its work in the native and
//! Docker flavors: "The Strongswan implementation leverages kernel
//! processing to handle packets faster" — the IKE-lite daemon installs
//! SAs here, and every data packet is transformed *in the kernel* at
//! kernel crypto cost (one AEAD pass, no extra copies).

use un_ipsec::esp::{self, IpsecError};
use un_ipsec::sa::Sad;
use un_ipsec::spd::{PolicyAction, PolicyDirection, Spd};
use un_packet::ethernet::ETHERNET_HEADER_LEN;
use un_packet::ipv4::{IpProtocol, Ipv4Packet, IPV4_HEADER_LEN};
use un_packet::packet::DEFAULT_HEADROOM;
use un_packet::Packet;
use un_sim::{Cost, CostModel};

/// Per-namespace XFRM state.
#[derive(Debug, Default)]
pub struct Xfrm {
    /// Security association database.
    pub sad: Sad,
    /// Security policy database.
    pub spd: Spd,
    /// Packets ESP-encapsulated.
    pub encap_count: u64,
    /// Packets ESP-decapsulated.
    pub decap_count: u64,
    /// Data-plane errors (auth failures, replays…).
    pub errors: u64,
}

/// Outcome of consulting XFRM on output.
#[derive(Debug)]
pub enum XfrmOutput {
    /// No policy (or Bypass): send the packet unchanged.
    Pass,
    /// Policy says discard.
    Discard,
    /// Packet was encapsulated: here is the new outer IPv4 packet, with
    /// headroom for an Ethernet header and more.
    Encapsulated(Packet),
    /// Policy references a missing/invalid SA.
    Error(IpsecError),
}

impl Xfrm {
    /// Fresh, empty XFRM state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consult the SPD for an outgoing IPv4 packet (`ip_bytes` is the
    /// complete IP packet). Returns what the caller should transmit.
    ///
    /// Charges: SPD/SAD lookup + kernel AEAD over the inner packet.
    pub fn output(
        &mut self,
        ip_bytes: &[u8],
        costs: &CostModel,
        cost_acc: &mut Cost,
    ) -> XfrmOutput {
        let Ok(ip) = Ipv4Packet::new_checked(ip_bytes) else {
            return XfrmOutput::Pass;
        };
        *cost_acc += Cost::from_nanos(costs.xfrm_lookup_ns);
        let Some(policy) = self.spd.lookup(
            PolicyDirection::Out,
            ip.src(),
            ip.dst(),
            u8::from(ip.protocol()),
        ) else {
            return XfrmOutput::Pass;
        };
        match policy.action {
            PolicyAction::Bypass => XfrmOutput::Pass,
            PolicyAction::Discard => {
                self.errors += 1;
                XfrmOutput::Discard
            }
            PolicyAction::Protect(spi) => {
                let Some(sa) = self.sad.get_mut(spi) else {
                    self.errors += 1;
                    return XfrmOutput::Error(IpsecError::NoSa { spi });
                };
                *cost_acc += costs.aead_kernel(ip_bytes.len());
                // Sealed straight behind room for the outer IPv4 header,
                // its Ethernet header and the default headroom: one
                // allocation, no copy.
                let room = DEFAULT_HEADROOM + ETHERNET_HEADER_LEN;
                match esp::encapsulate_into(sa, ip_bytes, room + IPV4_HEADER_LEN) {
                    Ok(buf) => {
                        let mut outer = Packet::from_buffer(buf, room);
                        esp::fill_tunnel_header(sa, outer.data_mut());
                        self.encap_count += 1;
                        XfrmOutput::Encapsulated(outer)
                    }
                    Err(e) => {
                        self.errors += 1;
                        XfrmOutput::Error(e)
                    }
                }
            }
        }
    }

    /// Try to decapsulate an incoming ESP packet (`ip_bytes` is the
    /// complete outer IP packet with protocol 50). Returns the inner IP
    /// packet on success, opened behind the default headroom.
    ///
    /// Charges: SAD lookup + kernel AEAD over the ESP payload.
    pub fn input(
        &mut self,
        ip_bytes: &[u8],
        costs: &CostModel,
        cost_acc: &mut Cost,
    ) -> Result<Packet, IpsecError> {
        let ip = Ipv4Packet::new_checked(ip_bytes).map_err(|_| IpsecError::Truncated)?;
        if ip.protocol() != IpProtocol::Esp {
            return Err(IpsecError::Truncated);
        }
        let payload = ip.payload();
        let Some(spi) = esp_spi(payload).filter(|_| payload.len() >= 8) else {
            self.errors += 1;
            return Err(IpsecError::Truncated);
        };
        *cost_acc += Cost::from_nanos(costs.xfrm_lookup_ns);
        let Some(sa) = self.sad.get_mut(spi) else {
            self.errors += 1;
            return Err(IpsecError::NoSa { spi });
        };
        *cost_acc += costs.aead_kernel(payload.len());
        match esp::decapsulate_into(sa, payload, DEFAULT_HEADROOM) {
            Ok(buf) => {
                self.decap_count += 1;
                Ok(Packet::from_buffer(buf, DEFAULT_HEADROOM))
            }
            Err(e) => {
                self.errors += 1;
                Err(e)
            }
        }
    }

    /// Is there an inbound SA able to receive this SPI? (Used by the
    /// pipeline to decide whether ESP traffic is for us.)
    pub fn knows_spi(&self, spi: u32) -> bool {
        self.sad.get(spi).is_some()
    }
}

/// The SPI an ESP payload opens with, if it is long enough to hold one.
pub(crate) fn esp_spi(esp_payload: &[u8]) -> Option<u32> {
    esp_payload.first_chunk().copied().map(u32::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use un_ipsec::sa::SecurityAssociation;
    use un_ipsec::spd::{SecurityPolicy, TrafficSelector};
    use un_packet::PacketBuilder;

    fn inner_packet() -> Vec<u8> {
        PacketBuilder::new()
            .ipv4(Ipv4Addr::new(192, 168, 1, 10), Ipv4Addr::new(172, 16, 0, 1))
            .udp(5001, 5201)
            .payload(&[0xAB; 64])
            .build()
            .data()
            .to_vec()
    }

    fn tunnel() -> (Xfrm, Xfrm) {
        let key = [0x11u8; 32];
        let salt = [1, 2, 3, 4];
        let a = Ipv4Addr::new(192, 0, 2, 1);
        let b = Ipv4Addr::new(203, 0, 113, 7);

        let mut left = Xfrm::new();
        left.sad
            .install(SecurityAssociation::outbound(0x500, a, b, key, salt));
        left.spd.install(SecurityPolicy {
            selector: TrafficSelector::between(
                "192.168.1.0/24".parse().unwrap(),
                "172.16.0.0/16".parse().unwrap(),
            ),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(0x500),
            priority: 10,
        });

        let mut right = Xfrm::new();
        right
            .sad
            .install(SecurityAssociation::inbound(0x500, a, b, key, salt));
        (left, right)
    }

    #[test]
    fn encap_then_decap_roundtrip() {
        let (mut left, mut right) = tunnel();
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        let inner = inner_packet();

        let XfrmOutput::Encapsulated(outer) = left.output(&inner, &costs, &mut cost) else {
            panic!("expected encapsulation");
        };
        assert!(cost.as_nanos() > 0, "kernel crypto must cost time");

        // Outer packet sanity.
        let ip = Ipv4Packet::new_checked(outer.data()).unwrap();
        assert_eq!(ip.protocol(), IpProtocol::Esp);
        assert_eq!(ip.src(), Ipv4Addr::new(192, 0, 2, 1));
        assert!(ip.verify_checksum());

        let mut cost2 = Cost::ZERO;
        let back = right.input(outer.data(), &costs, &mut cost2).unwrap();
        assert_eq!(back.data(), inner);
        assert_eq!(left.encap_count, 1);
        assert_eq!(right.decap_count, 1);
    }

    #[test]
    fn non_matching_traffic_passes() {
        let (mut left, _) = tunnel();
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        let other = PacketBuilder::new()
            .ipv4(Ipv4Addr::new(10, 9, 9, 9), Ipv4Addr::new(10, 8, 8, 8))
            .udp(1, 2)
            .build()
            .data()
            .to_vec();
        assert!(matches!(
            left.output(&other, &costs, &mut cost),
            XfrmOutput::Pass
        ));
    }

    #[test]
    fn discard_policy_discards() {
        let mut x = Xfrm::new();
        x.spd.install(SecurityPolicy {
            selector: TrafficSelector::any(),
            direction: PolicyDirection::Out,
            action: PolicyAction::Discard,
            priority: 1,
        });
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        assert!(matches!(
            x.output(&inner_packet(), &costs, &mut cost),
            XfrmOutput::Discard
        ));
        assert_eq!(x.errors, 1);
    }

    #[test]
    fn missing_sa_is_error() {
        let mut x = Xfrm::new();
        x.spd.install(SecurityPolicy {
            selector: TrafficSelector::any(),
            direction: PolicyDirection::Out,
            action: PolicyAction::Protect(0x999),
            priority: 1,
        });
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        assert!(matches!(
            x.output(&inner_packet(), &costs, &mut cost),
            XfrmOutput::Error(IpsecError::NoSa { spi: 0x999 })
        ));
        assert_eq!(x.errors, 1);
    }

    #[test]
    fn replayed_packet_rejected_at_input() {
        let (mut left, mut right) = tunnel();
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        let XfrmOutput::Encapsulated(outer) = left.output(&inner_packet(), &costs, &mut cost)
        else {
            panic!()
        };
        right.input(outer.data(), &costs, &mut cost).unwrap();
        let err = right.input(outer.data(), &costs, &mut cost).unwrap_err();
        assert!(matches!(err, IpsecError::Replay(_)));
        assert_eq!(right.errors, 1);
    }

    #[test]
    fn unknown_spi_rejected() {
        let (mut left, _) = tunnel();
        let mut other_rx = Xfrm::new();
        let costs = CostModel::default();
        let mut cost = Cost::ZERO;
        let XfrmOutput::Encapsulated(outer) = left.output(&inner_packet(), &costs, &mut cost)
        else {
            panic!()
        };
        assert_eq!(
            other_rx.input(outer.data(), &costs, &mut cost),
            Err(IpsecError::NoSa { spi: 0x500 })
        );
        assert_eq!(other_rx.errors, 1);
        assert!(!other_rx.knows_spi(0x500));
    }
}

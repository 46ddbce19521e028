//! Hostile variants of a genuine frame, for "typed error, never panic"
//! properties.
//!
//! Every variant starts from a well-formed Ethernet + IPv4 frame, so it
//! passes the first checks a data path makes and reaches the code behind
//! them: [`mutants`] cuts the frame short, flips a byte behind its
//! Ethernet header, splices noise in and overwrites the IPv4 total
//! length and header length; [`refilled`] repairs the header checksum
//! of a variant that still parses, so the damage also reaches the
//! stages behind the checksum.

use un_sim::DetRng;

use crate::ethernet::ETHERNET_HEADER_LEN as ETH;
use crate::ipv4::Ipv4Packet;
use crate::Packet;

/// The random choices behind one set of [`mutants`].
#[derive(Debug, Clone)]
pub struct Mutation {
    /// Where behind the Ethernet header a byte is flipped (modulo the
    /// room there).
    pub at: u16,
    /// The bits flipped there.
    pub flip: u8,
    /// Where the frame is cut short (modulo its length), and where
    /// behind the Ethernet header `noise` goes in.
    pub cut: u16,
    /// The bytes spliced in.
    pub noise: Vec<u8>,
    /// The IPv4 total length written over the real one.
    pub total_len: u16,
    /// The IPv4 header length, in 32-bit words, written over the real
    /// one (its low four bits).
    pub ihl: u8,
}

impl Mutation {
    /// One set of choices drawn from `rng`: 1 to 40 bytes of noise, a
    /// flip of at least one bit, any header length.
    pub fn draw(rng: &mut DetRng) -> Self {
        let mut noise = vec![0; 1 + rng.index(40)];
        rng.fill(&mut noise);
        Mutation {
            at: rng.range_u16(0, u16::MAX),
            flip: 1 + rng.index(255) as u8,
            cut: rng.range_u16(0, u16::MAX),
            noise,
            total_len: rng.range_u16(0, u16::MAX),
            ihl: rng.index(16) as u8,
        }
    }
}

/// Five variants of `frame` — an Ethernet + IPv4 frame with at least
/// one byte behind its Ethernet header: a byte flipped, cut short, noise
/// spliced in, the total length overwritten, the header length
/// overwritten.
pub fn mutants(frame: &Packet, m: &Mutation) -> [Packet; 5] {
    let len = frame.len();
    let behind_eth = |n: u16| ETH + usize::from(n) % (len - ETH);

    let mut flipped = frame.clone();
    flipped.data_mut()[behind_eth(m.at)] ^= m.flip;
    let mut short = frame.clone();
    short.truncate(usize::from(m.cut) % len);
    let pos = behind_eth(m.cut);
    let mut spliced = frame.data()[..pos].to_vec();
    spliced.extend_from_slice(&m.noise);
    spliced.extend_from_slice(&frame.data()[pos..]);
    let spliced = Packet::from_slice(&spliced);
    let mut long = frame.clone();
    long.data_mut()[ETH + 2..ETH + 4].copy_from_slice(&m.total_len.to_be_bytes());
    let mut hl = frame.clone();
    hl.data_mut()[ETH] = 0x40 | (m.ihl & 0x0f);
    [flipped, short, spliced, long, hl]
}

/// `frame` with the IPv4 header checksum behind its Ethernet header
/// refilled, where that header still parses.
pub fn refilled(mut frame: Packet) -> Packet {
    if let Some(Ok(mut ip)) = frame.data_mut().get_mut(ETH..).map(Ipv4Packet::new_checked) {
        ip.fill_checksum();
    }
    frame
}

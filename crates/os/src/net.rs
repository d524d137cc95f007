//! A simulated network: scripted external peers the guest can connect to,
//! and scripted external clients that connect to guest listeners.
//!
//! The external world must be *outside* the recorded process (its data is
//! input that the recorder logs) yet still deterministic enough to test
//! with, so peers and clients are declarative scripts. Their state lives in
//! the kernel and is snapshotted with it, which is what lets a rolled-back
//! execution re-consume the same network input — the simulated counterpart
//! of Speculator deferring and undoing the effects of speculative syscalls.
//!
//! Blocking is handled by the kernel; this module only answers "what would
//! this operation do right now" via [`NetPoll`].

use dp_support::wire::{Reader, Wire, WireError, DELTA_NEW, DELTA_SAME};
use std::collections::{BTreeMap, VecDeque};

use crate::abi::{EBADF, EINVAL, ENOENT};

/// First socket file descriptor (disjoint from file fds so the logged and
/// re-executed fd namespaces can never collide).
pub const FIRST_SOCK_FD: u32 = 1000;

/// What a scripted external peer does with a connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeerBehavior {
    /// Streams a fixed byte sequence to each connection; `recv` drains it
    /// and returns EOF when exhausted. Guest sends are absorbed.
    ChunkSource {
        /// The bytes each connection receives, in order.
        chunks: Vec<Vec<u8>>,
    },
    /// Serves byte ranges of a blob: each guest send must be 16 bytes
    /// (`offset: u64 le`, `len: u64 le`); the response bytes become
    /// receivable. Used by the `aget`-style parallel-download workload.
    RangeSource {
        /// The blob ranges are served from.
        blob: Vec<u8>,
    },
    /// Answers the i-th guest send with the i-th scripted response;
    /// `recv` after the last response returns EOF.
    RequestResponse {
        /// Scripted responses, consumed in order per connection.
        responses: Vec<Vec<u8>>,
    },
    /// Every sent byte becomes receivable.
    Echo,
}

/// A scripted external client that will connect to a guest listener.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientSpec {
    /// Virtual time (cycles) at which the connection arrives.
    pub arrival: u64,
    /// Guest port it connects to.
    pub port: u64,
    /// Requests sent by the client: request 0 upon accept, request *i*
    /// after the guest has sent *i* responses.
    pub requests: Vec<Vec<u8>>,
}

/// Declarative description of the whole external network.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetConfig {
    /// Peers addressable by id via `connect`.
    pub peers: BTreeMap<u32, PeerBehavior>,
    /// Scripted inbound clients.
    pub clients: Vec<ClientSpec>,
}

/// Result of a network operation attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetPoll<T> {
    /// The operation completes now.
    Ready(T),
    /// The operation must wait; if `wake_at` is set, it can definitely be
    /// retried at that virtual time (e.g. a scripted client arrival).
    WouldBlock {
        /// Earliest virtual time at which retrying may succeed, if known.
        wake_at: Option<u64>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Endpoint {
    Peer(u32),
    Client(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct SockState {
    endpoint: Endpoint,
    /// Bytes available for the guest to receive.
    inbox: VecDeque<u8>,
    /// Responses remaining (RequestResponse peers).
    responses_left: usize,
    closed: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ClientState {
    spec: ClientSpec,
    accepted_fd: Option<u32>,
    /// Index of the next request not yet made receivable.
    next_req: usize,
    /// Guest responses seen so far.
    responses_seen: usize,
}

/// The simulated network. `Clone` is a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimNet {
    peers: BTreeMap<u32, PeerBehavior>,
    clients: Vec<ClientState>,
    listeners: BTreeMap<u32, u64>, // listener fd -> port
    socks: BTreeMap<u32, SockState>,
    next_fd: u32,
    /// Total bytes received by the guest (workload characterization).
    pub bytes_in: u64,
    /// Total bytes sent by the guest.
    pub bytes_out: u64,
}

impl SimNet {
    /// Builds the network world from its script.
    pub fn new(config: NetConfig) -> Self {
        SimNet {
            peers: config.peers,
            clients: config
                .clients
                .into_iter()
                .map(|spec| ClientState {
                    spec,
                    accepted_fd: None,
                    next_req: 0,
                    responses_seen: 0,
                })
                .collect(),
            listeners: BTreeMap::new(),
            socks: BTreeMap::new(),
            next_fd: FIRST_SOCK_FD,
            bytes_in: 0,
            bytes_out: 0,
        }
    }

    fn alloc_fd(&mut self) -> u32 {
        let fd = self.next_fd;
        self.next_fd += 1;
        fd
    }

    /// Connects to peer `peer_id`, returning a socket fd.
    ///
    /// # Errors
    ///
    /// `ENOENT` for unknown peers.
    pub fn connect(&mut self, peer_id: u32) -> Result<u32, i64> {
        let behavior = self.peers.get(&peer_id).ok_or(ENOENT)?.clone();
        let fd = self.alloc_fd();
        let (inbox, responses_left) = match &behavior {
            PeerBehavior::ChunkSource { chunks } => (chunks.iter().flatten().copied().collect(), 0),
            PeerBehavior::RangeSource { .. } => (VecDeque::new(), usize::MAX),
            PeerBehavior::RequestResponse { responses } => (VecDeque::new(), responses.len()),
            PeerBehavior::Echo => (VecDeque::new(), usize::MAX),
        };
        self.socks.insert(
            fd,
            SockState {
                endpoint: Endpoint::Peer(peer_id),
                inbox,
                responses_left,
                closed: false,
            },
        );
        Ok(fd)
    }

    /// Opens a listener on `port`, returning a listener fd.
    ///
    /// # Errors
    ///
    /// `EINVAL` if the port is already bound.
    pub fn listen(&mut self, port: u64) -> Result<u32, i64> {
        if self.listeners.values().any(|&p| p == port) {
            return Err(EINVAL);
        }
        let fd = self.alloc_fd();
        self.listeners.insert(fd, port);
        Ok(fd)
    }

    /// Attempts to accept a connection on `listener_fd` at virtual time
    /// `now`. Ready with the new socket fd, or would-block with the next
    /// scripted arrival time (if any remain for this port).
    ///
    /// # Errors
    ///
    /// `EBADF` for non-listener fds.
    pub fn accept(&mut self, listener_fd: u32, now: u64) -> Result<NetPoll<u32>, i64> {
        let port = *self.listeners.get(&listener_fd).ok_or(EBADF)?;
        // Earliest unaccepted arrival for this port.
        let mut best: Option<usize> = None;
        for (i, c) in self.clients.iter().enumerate() {
            if c.spec.port == port
                && c.accepted_fd.is_none()
                && best.is_none_or(|b| c.spec.arrival < self.clients[b].spec.arrival)
            {
                best = Some(i);
            }
        }
        match best {
            None => Ok(NetPoll::WouldBlock { wake_at: None }),
            Some(i) if self.clients[i].spec.arrival <= now => {
                let fd = self.alloc_fd();
                let first = self.clients[i].spec.requests.first().cloned();
                let client = &mut self.clients[i];
                client.accepted_fd = Some(fd);
                let mut inbox = VecDeque::new();
                if let Some(req) = first {
                    inbox.extend(req);
                    client.next_req = 1;
                }
                self.socks.insert(
                    fd,
                    SockState {
                        endpoint: Endpoint::Client(i),
                        inbox,
                        responses_left: usize::MAX,
                        closed: false,
                    },
                );
                Ok(NetPoll::Ready(fd))
            }
            Some(i) => Ok(NetPoll::WouldBlock {
                wake_at: Some(self.clients[i].spec.arrival),
            }),
        }
    }

    /// Sends `data` on a socket. Always completes (the external world has
    /// unbounded buffers); returns the byte count and triggers scripted
    /// reactions (responses, next client request).
    ///
    /// # Errors
    ///
    /// `EBADF` for bad or closed sockets, `EINVAL` for malformed
    /// range-server requests.
    pub fn send(&mut self, fd: u32, data: &[u8]) -> Result<u64, i64> {
        let sock = self.socks.get_mut(&fd).ok_or(EBADF)?;
        if sock.closed {
            return Err(EBADF);
        }
        self.bytes_out += data.len() as u64;
        match sock.endpoint.clone() {
            Endpoint::Peer(pid) => {
                let behavior = self.peers.get(&pid).ok_or(ENOENT)?.clone();
                let sock = self.socks.get_mut(&fd).unwrap();
                match behavior {
                    PeerBehavior::ChunkSource { .. } => {} // absorbed
                    PeerBehavior::Echo => sock.inbox.extend(data.iter().copied()),
                    PeerBehavior::RangeSource { blob } => {
                        if data.len() != 16 {
                            return Err(EINVAL);
                        }
                        let off = u64::from_le_bytes(data[..8].try_into().unwrap()) as usize;
                        let len = u64::from_le_bytes(data[8..].try_into().unwrap()) as usize;
                        let start = off.min(blob.len());
                        let end = (off + len).min(blob.len());
                        sock.inbox.extend(blob[start..end].iter().copied());
                    }
                    PeerBehavior::RequestResponse { responses } => {
                        let idx = responses.len() - sock.responses_left.min(responses.len());
                        if let Some(resp) = responses.get(idx) {
                            sock.inbox.extend(resp.iter().copied());
                            sock.responses_left -= 1;
                        }
                    }
                }
            }
            Endpoint::Client(i) => {
                let client = &mut self.clients[i];
                client.responses_seen += 1;
                if client.next_req < client.spec.requests.len()
                    && client.responses_seen >= client.next_req
                {
                    let req = client.spec.requests[client.next_req].clone();
                    client.next_req += 1;
                    self.socks.get_mut(&fd).unwrap().inbox.extend(req);
                }
            }
        }
        Ok(data.len() as u64)
    }

    /// Attempts to receive up to `maxlen` bytes at time `now`. Ready with
    /// an empty vector means end-of-stream.
    ///
    /// # Errors
    ///
    /// `EBADF` for bad or closed sockets.
    pub fn recv(&mut self, fd: u32, maxlen: u64, _now: u64) -> Result<NetPoll<Vec<u8>>, i64> {
        let at_eof = {
            let sock = self.socks.get(&fd).ok_or(EBADF)?;
            if sock.closed {
                return Err(EBADF);
            }
            sock.inbox.is_empty() && self.stream_finished(sock)
        };
        let sock = self.socks.get_mut(&fd).unwrap();
        if !sock.inbox.is_empty() {
            let n = (maxlen as usize).min(sock.inbox.len());
            let data: Vec<u8> = sock.inbox.drain(..n).collect();
            self.bytes_in += data.len() as u64;
            return Ok(NetPoll::Ready(data));
        }
        if at_eof {
            return Ok(NetPoll::Ready(Vec::new()));
        }
        Ok(NetPoll::WouldBlock { wake_at: None })
    }

    fn stream_finished(&self, sock: &SockState) -> bool {
        match &sock.endpoint {
            Endpoint::Peer(pid) => match self.peers.get(pid) {
                Some(PeerBehavior::ChunkSource { .. }) => true, // preloaded
                Some(PeerBehavior::RequestResponse { .. }) => sock.responses_left == 0,
                Some(PeerBehavior::RangeSource { .. }) | Some(PeerBehavior::Echo) => false,
                None => true,
            },
            Endpoint::Client(i) => {
                let c = &self.clients[*i];
                c.next_req >= c.spec.requests.len()
            }
        }
    }

    /// Closes a socket or listener.
    ///
    /// # Errors
    ///
    /// `EBADF` if the fd is unknown.
    pub fn close(&mut self, fd: u32) -> Result<(), i64> {
        if self.listeners.remove(&fd).is_some() {
            return Ok(());
        }
        let sock = self.socks.get_mut(&fd).ok_or(EBADF)?;
        sock.closed = true;
        Ok(())
    }

    /// Earliest future scripted event (client arrival) after `now`, if any.
    pub fn next_event_after(&self, now: u64) -> Option<u64> {
        self.clients
            .iter()
            .filter(|c| c.accepted_fd.is_none() && c.spec.arrival > now)
            .map(|c| c.spec.arrival)
            .min()
    }

    /// Number of scripted clients not yet accepted.
    pub fn pending_clients(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| c.accepted_fd.is_none())
            .count()
    }
}

dp_support::impl_wire_enum!(PeerBehavior {
    0 => ChunkSource { chunks },
    1 => RangeSource { blob },
    2 => RequestResponse { responses },
    3 => Echo,
});
dp_support::impl_wire_struct!(ClientSpec {
    arrival,
    port,
    requests
});
dp_support::impl_wire_struct!(NetConfig { peers, clients });

impl Wire for Endpoint {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Endpoint::Peer(id) => {
                out.push(0);
                id.put(out);
            }
            Endpoint::Client(i) => {
                out.push(1);
                i.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        match r.u8("Endpoint tag")? {
            0 => Ok(Endpoint::Peer(Wire::get(r)?)),
            1 => Ok(Endpoint::Client(Wire::get(r)?)),
            _ => Err(WireError {
                offset: off,
                context: "unknown Endpoint tag",
            }),
        }
    }
}

dp_support::impl_wire_struct!(SockState {
    endpoint,
    inbox,
    responses_left,
    closed
});
dp_support::impl_wire_struct!(ClientState {
    spec,
    accepted_fd,
    next_req,
    responses_seen
});
impl SimNet {
    /// Appends the delta that turns `base` into `self`: the scripted peer
    /// set as a one-byte back-reference when it equals `base`'s (compared
    /// by value), else `1 ++ wire(peers)`; everything else whole.
    pub fn put_delta(&self, base: &SimNet, out: &mut Vec<u8>) {
        if self.peers == base.peers {
            out.push(DELTA_SAME);
        } else {
            out.push(DELTA_NEW);
            self.peers.put(out);
        }
        self.clients.put(out);
        self.listeners.put(out);
        self.socks.put(out);
        self.next_fd.put(out);
        self.bytes_in.put(out);
        self.bytes_out.put(out);
    }

    /// Applies a [`put_delta`](SimNet::put_delta) encoding to `base`.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for an unknown tag or malformed input; never a
    /// panic.
    pub fn get_delta(base: &SimNet, r: &mut Reader<'_>) -> Result<Self, WireError> {
        let off = r.pos();
        let peers = match r.u8("peer delta tag")? {
            DELTA_SAME => base.peers.clone(),
            DELTA_NEW => Wire::get(r)?,
            _ => {
                return Err(WireError {
                    offset: off,
                    context: "unknown peer delta tag",
                })
            }
        };
        Ok(SimNet {
            peers,
            clients: Wire::get(r)?,
            listeners: Wire::get(r)?,
            socks: Wire::get(r)?,
            next_fd: Wire::get(r)?,
            bytes_in: Wire::get(r)?,
            bytes_out: Wire::get(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_with_peer(behavior: PeerBehavior) -> SimNet {
        let mut cfg = NetConfig::default();
        cfg.peers.insert(7, behavior);
        SimNet::new(cfg)
    }

    #[test]
    fn unchanged_peer_scripts_are_a_one_byte_back_reference() {
        let blob = PeerBehavior::RangeSource {
            blob: vec![9; 10_000],
        };
        let base = net_with_peer(blob.clone());
        let same = net_with_peer(blob);
        let mut out = Vec::new();
        same.put_delta(&base, &mut out);
        assert_eq!(out[0], DELTA_SAME);
        assert!(out.len() < 32, "{} bytes", out.len());
        let back = SimNet::get_delta(&base, &mut Reader::new(&out)).unwrap();
        assert_eq!(back, same);
        // A changed script travels whole; an unknown tag is typed.
        let other = net_with_peer(PeerBehavior::Echo);
        out.clear();
        other.put_delta(&base, &mut out);
        assert_eq!(out[0], DELTA_NEW);
        assert_eq!(
            SimNet::get_delta(&base, &mut Reader::new(&out)).unwrap(),
            other
        );
        out[0] = 2;
        let err = SimNet::get_delta(&base, &mut Reader::new(&out)).unwrap_err();
        assert_eq!(err.context, "unknown peer delta tag");
    }

    #[test]
    fn chunk_source_streams_then_eof() {
        let mut net = net_with_peer(PeerBehavior::ChunkSource {
            chunks: vec![b"ab".to_vec(), b"cd".to_vec()],
        });
        let fd = net.connect(7).unwrap();
        assert_eq!(net.recv(fd, 3, 0).unwrap(), NetPoll::Ready(b"abc".to_vec()));
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(b"d".to_vec()));
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(vec![])); // EOF
        assert_eq!(net.bytes_in, 4);
    }

    #[test]
    fn range_source_serves_ranges() {
        let mut net = net_with_peer(PeerBehavior::RangeSource {
            blob: (0u8..100).collect(),
        });
        let fd = net.connect(7).unwrap();
        let mut req = Vec::new();
        req.extend(10u64.to_le_bytes());
        req.extend(5u64.to_le_bytes());
        net.send(fd, &req).unwrap();
        assert_eq!(
            net.recv(fd, 100, 0).unwrap(),
            NetPoll::Ready(vec![10, 11, 12, 13, 14])
        );
        // No outstanding request: blocks rather than EOF.
        assert!(matches!(
            net.recv(fd, 100, 0).unwrap(),
            NetPoll::WouldBlock { .. }
        ));
        assert_eq!(net.send(fd, b"short"), Err(EINVAL));
    }

    #[test]
    fn request_response_in_order_then_eof() {
        let mut net = net_with_peer(PeerBehavior::RequestResponse {
            responses: vec![b"one".to_vec(), b"two".to_vec()],
        });
        let fd = net.connect(7).unwrap();
        assert!(matches!(
            net.recv(fd, 10, 0).unwrap(),
            NetPoll::WouldBlock { .. }
        ));
        net.send(fd, b"q1").unwrap();
        assert_eq!(
            net.recv(fd, 10, 0).unwrap(),
            NetPoll::Ready(b"one".to_vec())
        );
        net.send(fd, b"q2").unwrap();
        assert_eq!(
            net.recv(fd, 10, 0).unwrap(),
            NetPoll::Ready(b"two".to_vec())
        );
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(vec![]));
    }

    #[test]
    fn echo_reflects_sends() {
        let mut net = net_with_peer(PeerBehavior::Echo);
        let fd = net.connect(7).unwrap();
        net.send(fd, b"ping").unwrap();
        assert_eq!(
            net.recv(fd, 10, 0).unwrap(),
            NetPoll::Ready(b"ping".to_vec())
        );
    }

    #[test]
    fn accept_respects_arrival_times() {
        let mut net = SimNet::new(NetConfig {
            peers: BTreeMap::new(),
            clients: vec![
                ClientSpec {
                    arrival: 100,
                    port: 80,
                    requests: vec![b"GET".to_vec()],
                },
                ClientSpec {
                    arrival: 50,
                    port: 80,
                    requests: vec![b"PUT".to_vec()],
                },
            ],
        });
        let lfd = net.listen(80).unwrap();
        assert_eq!(
            net.accept(lfd, 10).unwrap(),
            NetPoll::WouldBlock { wake_at: Some(50) }
        );
        // Earliest arrival is accepted first regardless of script order.
        let fd = match net.accept(lfd, 60).unwrap() {
            NetPoll::Ready(fd) => fd,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            net.recv(fd, 10, 60).unwrap(),
            NetPoll::Ready(b"PUT".to_vec())
        );
        assert_eq!(net.next_event_after(60), Some(100));
        assert_eq!(net.pending_clients(), 1);
    }

    #[test]
    fn client_request_flow_control() {
        let mut net = SimNet::new(NetConfig {
            peers: BTreeMap::new(),
            clients: vec![ClientSpec {
                arrival: 0,
                port: 80,
                requests: vec![b"r1".to_vec(), b"r2".to_vec()],
            }],
        });
        let lfd = net.listen(80).unwrap();
        let fd = match net.accept(lfd, 0).unwrap() {
            NetPoll::Ready(fd) => fd,
            other => panic!("{other:?}"),
        };
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(b"r1".to_vec()));
        // Second request only after the guest responds.
        assert!(matches!(
            net.recv(fd, 10, 0).unwrap(),
            NetPoll::WouldBlock { .. }
        ));
        net.send(fd, b"resp1").unwrap();
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(b"r2".to_vec()));
        net.send(fd, b"resp2").unwrap();
        assert_eq!(net.recv(fd, 10, 0).unwrap(), NetPoll::Ready(vec![])); // EOF
    }

    #[test]
    fn errors() {
        let mut net = SimNet::new(NetConfig::default());
        assert_eq!(net.connect(99), Err(ENOENT));
        assert_eq!(net.send(5, b"x"), Err(EBADF));
        assert_eq!(net.recv(5, 1, 0).err(), Some(EBADF));
        assert_eq!(net.accept(5, 0).err(), Some(EBADF));
        assert_eq!(net.close(5), Err(EBADF));
        let l = net.listen(80).unwrap();
        assert_eq!(net.listen(80), Err(EINVAL));
        assert_eq!(net.close(l), Ok(()));
        // Port free again after close.
        assert!(net.listen(80).is_ok());
    }

    #[test]
    fn closed_socket_rejects_io() {
        let mut net = net_with_peer(PeerBehavior::Echo);
        let fd = net.connect(7).unwrap();
        net.close(fd).unwrap();
        assert_eq!(net.send(fd, b"x"), Err(EBADF));
        assert_eq!(net.recv(fd, 1, 0).err(), Some(EBADF));
    }

    #[test]
    fn fd_allocation_deterministic_and_disjoint_from_files() {
        let mut net = net_with_peer(PeerBehavior::Echo);
        let fd = net.connect(7).unwrap();
        assert!(fd >= FIRST_SOCK_FD);
        let mut net2 = net_with_peer(PeerBehavior::Echo);
        assert_eq!(net2.connect(7).unwrap(), fd);
    }
}

#include "net/secure_channel.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "sim/fault.h"

namespace ironsafe::net {

namespace {

// Key schedule: two direction-separated AEAD keys plus a session id.
struct KeySchedule {
  Bytes initiator_key;
  Bytes responder_key;
  Bytes session_id;
};

KeySchedule DeriveKeys(const Bytes& shared_secret, const Bytes& transcript) {
  KeySchedule ks;
  ks.initiator_key = crypto::HkdfSha256(transcript, shared_secret,
                                        ToBytes("i2r"), crypto::Aead::kKeySize);
  ks.responder_key = crypto::HkdfSha256(transcript, shared_secret,
                                        ToBytes("r2i"), crypto::Aead::kKeySize);
  ks.session_id =
      crypto::HkdfSha256(transcript, shared_secret, ToBytes("sid"), 16);
  return ks;
}

Result<std::unique_ptr<SecureChannel>> BuildChannel(const KeySchedule& ks,
                                                    bool is_initiator) {
  ASSIGN_OR_RETURN(crypto::Aead send,
                   crypto::Aead::Create(is_initiator ? ks.initiator_key
                                                     : ks.responder_key));
  ASSIGN_OR_RETURN(crypto::Aead recv,
                   crypto::Aead::Create(is_initiator ? ks.responder_key
                                                     : ks.initiator_key));
  return std::unique_ptr<SecureChannel>(new SecureChannel(
      std::move(send), std::move(recv), ks.session_id));
}

}  // namespace

Result<Bytes> SecureChannel::Send(const Bytes& plaintext,
                                  sim::CostModel* cost) {
  if (closed_) {
    return Status::FailedPrecondition("secure channel is closed");
  }
  // Injected link loss before the send commits: the sequence number does
  // not advance, so a plain re-send of the same plaintext recovers.
  if (sim::FaultAt(sim::fault_site::kNetSendDrop)) {
    IRONSAFE_COUNTER_ADD("net.channel.injected_drops", 1);
    return Status::Unavailable("injected: frame dropped before send at seq " +
                               std::to_string(send_seq_));
  }
  Bytes aad;
  PutU64(&aad, send_seq_);
  Append(&aad, session_id_);
  Bytes nonce(crypto::Aead::kNonceSize, 0);
  PutU64(&nonce, send_seq_);
  nonce.resize(crypto::Aead::kNonceSize);
  ASSIGN_OR_RETURN(Bytes frame, send_aead_.Seal(nonce, aad, plaintext));
  // Send state advances only after the frame is sealed, so a Seal failure
  // (or the injected drop above) leaves the channel usable as-is.
  ++send_seq_;
  // Injected in-transit damage after the send committed: the receiver will
  // reject the frame, and the endpoints need a re-handshake to resync.
  if (auto hit = sim::FaultAt(sim::fault_site::kNetSendCorrupt)) {
    IRONSAFE_COUNTER_ADD("net.channel.injected_corruptions", 1);
    frame[hit->param % frame.size()] ^= 0x01;
  }
  IRONSAFE_COUNTER_ADD("net.channel.frames_sent", 1);
  IRONSAFE_COUNTER_ADD("net.channel.send_bytes", frame.size());
  if (cost != nullptr) cost->ChargeNetwork(frame.size());
  return frame;
}

Result<Bytes> SecureChannel::Receive(const Bytes& frame,
                                     sim::CostModel* cost) {
  (void)cost;  // receive side piggybacks on the sender's network charge
  if (closed_) {
    return Status::FailedPrecondition("secure channel is closed");
  }
  // Injected replay: the adversary substitutes the previously accepted
  // frame for the incoming one. Its AAD binds an older sequence number,
  // so the AEAD open below must reject it.
  const Bytes* incoming = &frame;
  if (sim::FaultAt(sim::fault_site::kNetRecvReplay) &&
      !last_accepted_frame_.empty()) {
    IRONSAFE_COUNTER_ADD("net.channel.injected_replays", 1);
    incoming = &last_accepted_frame_;
  }
  Bytes aad;
  PutU64(&aad, recv_seq_);
  Append(&aad, session_id_);
  auto plaintext = recv_aead_.Open(aad, *incoming);
  if (!plaintext.ok()) {
    // Rejection is transactional: recv_seq_ is untouched, so the expected
    // legitimate frame still authenticates after the bad one is discarded.
    IRONSAFE_COUNTER_ADD("net.channel.rejects", 1);
    return Status::Corruption(
        "secure channel record rejected (tamper, replay or reorder) at seq " +
        std::to_string(recv_seq_));
  }
  ++recv_seq_;
  IRONSAFE_COUNTER_ADD("net.channel.frames_received", 1);
  IRONSAFE_COUNTER_ADD("net.channel.recv_bytes", incoming->size());
  if (sim::FaultRegistry::Global().enabled()) last_accepted_frame_ = *incoming;
  return plaintext;
}

void SecureChannel::Close() {
  if (closed_) return;
  closed_ = true;
  send_aead_.Zeroize();
  recv_aead_.Zeroize();
  std::fill(session_id_.begin(), session_id_.end(), uint8_t{0});
  std::fill(last_accepted_frame_.begin(), last_accepted_frame_.end(),
            uint8_t{0});
  last_accepted_frame_.clear();
  IRONSAFE_COUNTER_ADD("net.channel.closed", 1);
}

Result<Handshake::Hello> Handshake::Start() {
  ephemeral_private_ = drbg_->Generate(32);
  ASSIGN_OR_RETURN(ephemeral_public_, crypto::X25519Base(ephemeral_private_));
  return Hello{ephemeral_public_};
}

Result<std::unique_ptr<SecureChannel>> Handshake::Finish(const Hello& peer,
                                                         bool is_initiator) {
  if (ephemeral_private_.empty()) {
    return Status::FailedPrecondition("call Start() before Finish()");
  }
  ASSIGN_OR_RETURN(Bytes shared,
                   crypto::X25519(ephemeral_private_, peer.ephemeral_public));
  // RFC 7748 §6.1: a low-order peer key (32 zero bytes, for one) forces
  // an all-zero secret, and the keys would then depend only on the public
  // transcript.
  uint8_t any_bit = 0;
  for (uint8_t byte : shared) any_bit |= byte;
  if (any_bit == 0) {
    return Status::InvalidArgument(
        "peer ephemeral key is low-order: X25519 shared secret is all zeros");
  }
  // Transcript binds both public keys in a canonical order.
  Bytes transcript;
  const Bytes& a = is_initiator ? ephemeral_public_ : peer.ephemeral_public;
  const Bytes& b = is_initiator ? peer.ephemeral_public : ephemeral_public_;
  Append(&transcript, a);
  Append(&transcript, b);
  transcript = crypto::Sha256::Hash(transcript);
  return BuildChannel(DeriveKeys(shared, transcript), is_initiator);
}

Result<std::pair<std::unique_ptr<SecureChannel>,
                 std::unique_ptr<SecureChannel>>>
Handshake::FromSessionKey(const Bytes& session_key) {
  Bytes transcript = crypto::Sha256::Hash(session_key);
  KeySchedule ks = DeriveKeys(session_key, transcript);
  ASSIGN_OR_RETURN(auto initiator, BuildChannel(ks, true));
  ASSIGN_OR_RETURN(auto responder, BuildChannel(ks, false));
  return std::make_pair(std::move(initiator), std::move(responder));
}

}  // namespace ironsafe::net

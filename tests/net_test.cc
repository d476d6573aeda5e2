#include <gtest/gtest.h>

#include "net/secure_channel.h"
#include "net/wire.h"

namespace ironsafe::net {
namespace {

class SecureChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    crypto::Drbg drbg_a(ToBytes("alice")), drbg_b(ToBytes("bob"));
    Handshake a(&drbg_a), b(&drbg_b);
    auto hello_a = a.Start();
    auto hello_b = b.Start();
    ASSERT_TRUE(hello_a.ok() && hello_b.ok());
    auto chan_a = a.Finish(*hello_b, /*is_initiator=*/true);
    auto chan_b = b.Finish(*hello_a, /*is_initiator=*/false);
    ASSERT_TRUE(chan_a.ok() && chan_b.ok());
    a_ = std::move(*chan_a);
    b_ = std::move(*chan_b);
  }

  std::unique_ptr<SecureChannel> a_, b_;
};

TEST_F(SecureChannelTest, RoundTripBothDirections) {
  auto f1 = a_->Send(ToBytes("query"), nullptr);
  ASSERT_TRUE(f1.ok());
  auto p1 = b_->Receive(*f1, nullptr);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, ToBytes("query"));

  auto f2 = b_->Send(ToBytes("rows"), nullptr);
  auto p2 = a_->Receive(*f2, nullptr);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(*p2, ToBytes("rows"));
}

TEST_F(SecureChannelTest, SessionIdsAgree) {
  EXPECT_EQ(a_->session_id(), b_->session_id());
}

TEST_F(SecureChannelTest, WireIsCiphertext) {
  Bytes plaintext = ToBytes("SELECT c_name FROM customer");
  auto frame = a_->Send(plaintext, nullptr);
  ASSERT_TRUE(frame.ok());
  std::string wire(frame->begin(), frame->end());
  EXPECT_EQ(wire.find("customer"), std::string::npos);
}

TEST_F(SecureChannelTest, TamperDetected) {
  auto frame = a_->Send(ToBytes("data"), nullptr);
  (*frame)[frame->size() / 2] ^= 1;
  EXPECT_TRUE(b_->Receive(*frame, nullptr).status().IsCorruption());
}

TEST_F(SecureChannelTest, ReplayDetected) {
  auto frame = a_->Send(ToBytes("pay $100"), nullptr);
  ASSERT_TRUE(b_->Receive(*frame, nullptr).ok());
  // Same frame again: the receive sequence number advanced.
  EXPECT_TRUE(b_->Receive(*frame, nullptr).status().IsCorruption());
}

TEST_F(SecureChannelTest, TamperedThenLegitFrameStillAuthenticates) {
  // Regression: a rejected frame must not consume the receive sequence
  // number. An adversary injecting garbage in front of a legitimate
  // frame would otherwise permanently desync the channel.
  auto frame = a_->Send(ToBytes("data"), nullptr);
  ASSERT_TRUE(frame.ok());
  Bytes tampered = *frame;
  tampered[tampered.size() / 2] ^= 1;
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(b_->Receive(tampered, nullptr).status().IsCorruption());
  }
  auto got = b_->Receive(*frame, nullptr);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, ToBytes("data"));
  // And the channel keeps working afterwards.
  auto next = a_->Send(ToBytes("more"), nullptr);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(b_->Receive(*next, nullptr).ok());
}

TEST_F(SecureChannelTest, ReorderDetected) {
  auto f1 = a_->Send(ToBytes("first"), nullptr);
  auto f2 = a_->Send(ToBytes("second"), nullptr);
  EXPECT_TRUE(b_->Receive(*f2, nullptr).status().IsCorruption());
  EXPECT_TRUE(b_->Receive(*f1, nullptr).ok());
}

TEST_F(SecureChannelTest, NetworkCostCharged) {
  sim::CostModel cm;
  Bytes payload(1 << 20, 0xAA);
  ASSERT_TRUE(a_->Send(payload, &cm).ok());
  EXPECT_GT(cm.network_bytes(), payload.size());  // + AEAD overhead
}

TEST_F(SecureChannelTest, CloseFailsSubsequentSendAndReceive) {
  // Keep a valid frame from before the close to prove Receive rejects it
  // under the dead keys rather than decrypting with stale material.
  auto inbound = b_->Send(ToBytes("late frame"), nullptr);
  ASSERT_TRUE(inbound.ok());

  a_->Close();
  EXPECT_TRUE(a_->closed());
  EXPECT_TRUE(a_->Send(ToBytes("x"), nullptr)
                  .status()
                  .code() == StatusCode::kFailedPrecondition);
  EXPECT_TRUE(a_->Receive(*inbound, nullptr).status().code() ==
              StatusCode::kFailedPrecondition);
  // The session id was zeroized with the keys.
  EXPECT_EQ(a_->session_id(), Bytes(a_->session_id().size(), 0));
  // Idempotent: a second Close is a no-op, and the peer is unaffected.
  a_->Close();
  auto f = b_->Send(ToBytes("peer still works"), nullptr);
  EXPECT_TRUE(f.ok());
}

TEST_F(SecureChannelTest, CloseIsOneSided) {
  b_->Close();
  EXPECT_FALSE(a_->closed());
  // a_ can still seal; nobody can open it (b_'s recv keys are gone).
  auto frame = a_->Send(ToBytes("into the void"), nullptr);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(b_->Receive(*frame, nullptr).ok());
}

TEST(HandshakeTest, EavesdropperCannotDecrypt) {
  crypto::Drbg d1(ToBytes("a")), d2(ToBytes("b")), d3(ToBytes("eve"));
  Handshake a(&d1), b(&d2), eve(&d3);
  auto ha = a.Start();
  auto hb = b.Start();
  auto he = eve.Start();
  auto chan_a = a.Finish(*hb, true);
  // Eve saw both hellos but knows neither private key: she derives a
  // different channel and cannot open A's frames.
  auto chan_eve = eve.Finish(*ha, false);
  auto frame = (*chan_a)->Send(ToBytes("secret"), nullptr);
  EXPECT_FALSE((*chan_eve)->Receive(*frame, nullptr).ok());
}

TEST(HandshakeTest, FromSessionKeyPairInterops) {
  auto pair = Handshake::FromSessionKey(Bytes(32, 0x11));
  ASSERT_TRUE(pair.ok());
  auto frame = pair->first->Send(ToBytes("hi"), nullptr);
  auto back = pair->second->Receive(*frame, nullptr);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, ToBytes("hi"));
}

TEST(HandshakeTest, FinishBeforeStartFails) {
  crypto::Drbg d(ToBytes("x"));
  Handshake h(&d);
  Handshake::Hello hello{Bytes(32, 1)};
  EXPECT_FALSE(h.Finish(hello, true).ok());
}

TEST(HandshakeTest, LowOrderPeerKeyBuildsNoChannel) {
  crypto::Drbg d(ToBytes("x"));
  Handshake h(&d);
  ASSERT_TRUE(h.Start().ok());
  // u = 0 and u = 1 are low-order points: X25519 with them is all zeros.
  for (int u : {0, 1}) {
    Bytes key(32, 0);
    key[0] = static_cast<uint8_t>(u);
    auto channel = h.Finish(Handshake::Hello{key}, true);
    EXPECT_TRUE(channel.status().IsInvalidArgument()) << "u=" << u;
  }
}

TEST(WireTest, ResultRoundTrip) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"id", sql::Type::kInt64});
  result.schema.AddColumn(sql::Column{"name", sql::Type::kString});
  result.schema.AddColumn(sql::Column{"d", sql::Type::kDate});
  for (int i = 0; i < 100; ++i) {
    result.rows.push_back(sql::Row{sql::Value::Int(i),
                                   sql::Value::String("row" + std::to_string(i)),
                                   sql::Value::Date(1000 + i)});
  }
  auto back = DeserializeResult(SerializeResult(result));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->schema.size(), 3u);
  EXPECT_EQ(back->schema.column(1).name, "name");
  ASSERT_EQ(back->rows.size(), 100u);
  EXPECT_EQ(back->rows[42][1].AsString(), "row42");
  EXPECT_EQ(back->rows[99][2].type(), sql::Type::kDate);
}

TEST(WireTest, EmptyResult) {
  sql::QueryResult result;
  result.schema.AddColumn(sql::Column{"x", sql::Type::kDouble});
  auto back = DeserializeResult(SerializeResult(result));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->rows.empty());
  EXPECT_EQ(back->schema.size(), 1u);
}

TEST(WireTest, GarbageRejected) {
  EXPECT_FALSE(DeserializeResult(ToBytes("not a record batch")).ok());
  EXPECT_FALSE(DeserializeResult({}).ok());
}

}  // namespace
}  // namespace ironsafe::net

#include "src/pubsub/message.h"

namespace et::pubsub {

namespace {
// First wire byte distinguishes pub/sub frames from other protocol
// families sharing a backend (discovery uses a different magic).
constexpr std::uint8_t kPubSubMagic = 0xB5;
}  // namespace

Bytes Message::signable_bytes() const { return as_view().signable_bytes(); }

void Message::encode(Writer& w) const {
  w.str(topic);
  w.bytes(payload);
  w.str(publisher);
  w.u64(sequence);
  w.i64(timestamp);
  w.bytes(auth_token);
  w.bytes(signature);
  w.boolean(encrypted);
}

Message Message::decode(Reader& r) {
  return MessageView::decode(r).materialize();
}

std::size_t Message::encoded_size() const {
  return 4 + topic.size() + 4 + payload.size() + 4 + publisher.size() + 8 + 8 +
         4 + auth_token.size() + 4 + signature.size() + 1;
}

MessageView Message::as_view() const {
  MessageView v;
  v.topic = topic;
  v.payload = BytesView(payload);
  v.publisher = publisher;
  v.sequence = sequence;
  v.timestamp = timestamp;
  v.auth_token = BytesView(auth_token);
  v.signature = BytesView(signature);
  v.encrypted = encrypted;
  return v;
}

Bytes MessageView::signable_bytes() const {
  Writer w;
  w.str(topic);
  w.bytes(payload);
  w.str(publisher);
  w.u64(sequence);
  w.i64(timestamp);
  w.bytes(auth_token);
  w.boolean(encrypted);
  return std::move(w).take();
}

Message MessageView::materialize() const {
  Message m;
  m.topic.assign(topic);
  m.payload.assign(payload.begin(), payload.end());
  m.publisher.assign(publisher);
  m.sequence = sequence;
  m.timestamp = timestamp;
  m.auth_token.assign(auth_token.begin(), auth_token.end());
  m.signature.assign(signature.begin(), signature.end());
  m.encrypted = encrypted;
  return m;
}

MessageView MessageView::decode(Reader& r) {
  MessageView m;
  m.topic = r.str_view();
  m.payload = r.bytes_view();
  m.publisher = r.str_view();
  m.sequence = r.u64();
  m.timestamp = r.i64();
  m.auth_token = r.bytes_view();
  m.signature = r.bytes_view();
  m.encrypted = r.boolean();
  return m;
}

Bytes Frame::serialize() const {
  Writer w;
  std::size_t size = 2 + 4 + text.size() + 4 + 4 + detail.size() + 8 + 1;
  if (message) size += message->encoded_size();
  w.reserve(size);
  w.u8(kPubSubMagic);
  w.u8(static_cast<std::uint8_t>(type));
  w.str(text);
  w.u32(status);
  w.str(detail);
  w.u64(request_id);
  w.boolean(message.has_value());
  if (message) message->encode(w);
  return std::move(w).take();
}

Frame Frame::deserialize(BytesView b) {
  return FrameView::parse(b).materialize();
}

Frame FrameView::materialize() const {
  Frame f;
  f.type = type;
  f.text.assign(text);
  if (message) f.message = message->materialize();
  f.status = status;
  f.detail.assign(detail);
  f.request_id = request_id;
  return f;
}

FrameView FrameView::parse(BytesView b) {
  Reader r(b);
  if (r.u8() != kPubSubMagic) {
    throw SerializeError("not a pub/sub frame");
  }
  FrameView f;
  f.wire = b;
  f.type = static_cast<FrameType>(r.u8());
  if (f.type < FrameType::kConnect || f.type > FrameType::kPeerExchange) {
    throw SerializeError("unknown frame type");
  }
  f.text = r.str_view();
  f.status = r.u32();
  f.detail = r.str_view();
  f.request_id = r.u64();
  if (r.boolean()) f.message = MessageView::decode(r);
  r.expect_done();
  return f;
}

Frame make_connect(std::string entity_id, std::uint64_t request_id) {
  Frame f;
  f.type = FrameType::kConnect;
  f.text = std::move(entity_id);
  f.request_id = request_id;
  return f;
}

Frame make_subscribe(std::string pattern, std::uint64_t request_id) {
  Frame f;
  f.type = FrameType::kSubscribe;
  f.text = std::move(pattern);
  f.request_id = request_id;
  return f;
}

Frame make_unsubscribe(std::string pattern) {
  Frame f;
  f.type = FrameType::kUnsubscribe;
  f.text = std::move(pattern);
  return f;
}

Frame make_publish(Message m) {
  Frame f;
  f.type = FrameType::kPublish;
  f.message = std::move(m);
  return f;
}

Frame make_publish(std::string topic, Bytes payload, std::string publisher) {
  Frame f;
  f.type = FrameType::kPublish;
  Message& m = f.message.emplace();
  m.topic = std::move(topic);
  m.payload = std::move(payload);
  m.publisher = std::move(publisher);
  return f;
}

Bytes encode_publish_frame(const Message& m) {
  Writer w;
  w.reserve(2 + 4 + 4 + 4 + 8 + 1 + m.encoded_size());
  w.u8(kPubSubMagic);
  w.u8(static_cast<std::uint8_t>(FrameType::kPublish));
  w.str({});    // text
  w.u32(0);     // status
  w.str({});    // detail
  w.u64(0);     // request_id
  w.boolean(true);
  m.encode(w);
  return std::move(w).take();
}

Frame make_error(std::uint32_t status, std::string detail,
                 std::uint64_t request_id) {
  Frame f;
  f.type = FrameType::kError;
  f.status = status;
  f.detail = std::move(detail);
  f.request_id = request_id;
  return f;
}

}  // namespace et::pubsub

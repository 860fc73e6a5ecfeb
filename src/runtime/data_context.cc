#include "runtime/data_context.h"

namespace adept {

void DataContext::Write(DataId data, DataValue value, NodeId writer,
                        int64_t sequence) {
  const HistoryPtr* head = elements_.Find(data);
  auto node = std::make_shared<VersionNode>();
  node->version = Version{value, writer, sequence};
  if (head != nullptr) {
    node->prev = *head;
    node->length = (*head)->length + 1;
  } else {
    node->length = 1;
  }
  elements_.Set(data, std::move(node));
  tips_.Set(data, std::move(value));
}

Result<DataValue> DataContext::Read(DataId data) const {
  const DataValue* tip = tips_.Find(data);
  if (tip == nullptr) return Status::NotFound("data element has no value");
  return *tip;
}

bool DataContext::HasValue(DataId data) const { return tips_.Contains(data); }

std::vector<DataContext::Version> DataContext::History(DataId data) const {
  const HistoryPtr* head = elements_.Find(data);
  return head == nullptr ? std::vector<Version>() : Materialize(*head);
}

std::vector<DataContext::Version> DataContext::Materialize(
    const HistoryPtr& head) {
  std::vector<Version> out;
  if (head == nullptr) return out;
  out.resize(head->length);
  size_t i = head->length;
  for (const VersionNode* node = head.get(); node != nullptr;
       node = node->prev.get()) {
    out[--i] = node->version;
  }
  return out;
}

size_t DataContext::MemoryFootprint() const {
  size_t bytes = sizeof(*this) + elements_.MemoryFootprint() +
                 tips_.MemoryFootprint();
  elements_.ForEach([&](DataId, const HistoryPtr& head) {
    for (const VersionNode* node = head.get(); node != nullptr;
         node = node->prev.get()) {
      bytes += sizeof(VersionNode) + node->version.value.as_string().capacity();
    }
  });
  return bytes;
}

}  // namespace adept

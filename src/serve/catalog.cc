#include "serve/catalog.h"

#include <utility>

namespace stark {
namespace serve {

DatasetSnapshot BuildSnapshot(uint64_t version,
                              std::vector<stream::StreamEvent> events,
                              size_t order) {
  auto slab = std::make_shared<std::vector<stream::StreamEvent>>(
      std::move(events));
  std::vector<std::pair<Envelope, uint32_t>> entries;
  entries.reserve(slab->size());
  for (size_t i = 0; i < slab->size(); ++i) {
    entries.emplace_back((*slab)[i].obj.envelope(),
                         static_cast<uint32_t>(i));
  }
  DatasetSnapshot snap;
  snap.version = version;
  snap.events = std::move(slab);
  snap.tree = std::make_shared<const PackedRTree<uint32_t>>(
      order, std::move(entries));
  snap.slab = std::make_shared<const ColumnarBatch>(ColumnarBatch::Build(
      *snap.events,
      [](const stream::StreamEvent& e) -> const STObject& { return e.obj; }));
  GlobalColumnarMetrics().batches->Increment();
  return snap;
}

Status Catalog::CreateDataset(const std::string& name, size_t order) {
  std::unique_ptr<Dataset> fresh;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (datasets_.count(name) != 0) return Status::OK();
    fresh = std::make_unique<Dataset>();
    fresh->order = order == 0 ? 16 : order;
    datasets_[name] = std::move(fresh);
  }
  // Publish the empty version-0 epoch outside mu_ (registry is internally
  // locked; dataset pointers are stable once inserted).
  Result<Dataset*> ds = Find(name);
  Dataset* d = ds.ValueOrDie();
  std::lock_guard<std::mutex> ingest_lock(d->ingest_mu);
  if (d->registry.NewestEpoch() == 0) {
    d->registry.Publish(std::make_shared<const DatasetSnapshot>(
        BuildSnapshot(0, {}, d->order)));
  }
  obs::DefaultMetrics()
      .GetGauge("serve.catalog.datasets")
      ->Set(static_cast<int64_t>(ListDatasets().size()));
  return Status::OK();
}

Result<uint64_t> Catalog::Ingest(const std::string& name,
                                 std::vector<stream::StreamEvent> batch) {
  static obs::Counter* const ingested =
      obs::DefaultMetrics().GetCounter("serve.ingest.events");
  static obs::Counter* const publishes =
      obs::DefaultMetrics().GetCounter("serve.ingest.publishes");
  STARK_ASSIGN_OR_RETURN(Dataset* d, Find(name));
  std::lock_guard<std::mutex> lock(d->ingest_mu);
  ingested->Add(batch.size());
  for (stream::StreamEvent& e : batch) {
    d->all_events.push_back(std::move(e));
  }
  ++d->version;
  // The rebuild runs on the ingestion thread with only this dataset's
  // ingest lock held — readers keep serving pinned epochs throughout.
  DatasetSnapshot snap = BuildSnapshot(d->version, d->all_events, d->order);
  const uint64_t epoch = d->registry.Publish(
      std::make_shared<const DatasetSnapshot>(std::move(snap)));
  publishes->Increment();
  return epoch;
}

Result<PinnedDataset> Catalog::Pin(const std::string& name) {
  STARK_ASSIGN_OR_RETURN(Dataset* d, Find(name));
  PinnedDataset pinned = d->registry.Pin();
  if (!pinned.valid()) {
    return Status::KeyError("serve: dataset '" + name +
                            "' has no published snapshot");
  }
  return pinned;
}

Result<DatasetRegistry*> Catalog::Registry(const std::string& name) {
  STARK_ASSIGN_OR_RETURN(Dataset* d, Find(name));
  return &d->registry;
}

std::vector<std::string> Catalog::ListDatasets() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(datasets_.size());
  for (const auto& [name, d] : datasets_) names.push_back(name);
  return names;
}

Result<Catalog::Dataset*> Catalog::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = datasets_.find(name);
  if (it == datasets_.end()) {
    return Status::KeyError("serve: unknown dataset '" + name + "'");
  }
  return it->second.get();
}

}  // namespace serve
}  // namespace stark

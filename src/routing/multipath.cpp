#include "routing/multipath.hpp"

#include "common/check.hpp"

#include <algorithm>
#include <limits>

namespace hcube::routing {

namespace {
constexpr std::size_t kNotOnPath = std::numeric_limits<std::size_t>::max();
} // namespace

MultipathTransfer::MultipathTransfer(hc::dim_t n, hc::node_t src,
                                     hc::node_t dst, double total_size,
                                     double chunk, std::size_t path_count)
    : src_(src), dst_(dst), total_size_(total_size), chunk_(chunk) {
    HCUBE_ENSURE(total_size > 0 && chunk > 0);
    auto all_paths = hc::disjoint_paths(src, dst, n);
    HCUBE_ENSURE_MSG(path_count >= 1 && path_count <= all_paths.size(),
                     "path_count out of range");
    // The construction orders short (distance-length) paths first; using a
    // prefix keeps the hop penalty minimal at small path counts.
    paths_.assign(all_paths.begin(),
                  all_paths.begin() + static_cast<std::ptrdiff_t>(path_count));

    const hc::node_t count = hc::node_t{1} << n;
    position_.assign(paths_.size(),
                     std::vector<std::size_t>(count, kNotOnPath));
    for (std::size_t p = 0; p < paths_.size(); ++p) {
        for (std::size_t hop = 0; hop < paths_[p].size(); ++hop) {
            position_[p][paths_[p][hop]] = hop;
        }
    }
}

void MultipathTransfer::on_start(sim::NodeContext& ctx) {
    if (ctx.self() != src_) {
        return;
    }
    // Split the message evenly; path p's share travels in chunks, each
    // tagged with its path so intermediates know where to forward.
    const double share = total_size_ / static_cast<double>(paths_.size());
    for (std::size_t p = 0; p < paths_.size(); ++p) {
        double remaining = share;
        while (remaining > 1e-9) {
            const double piece = std::min(remaining, chunk_);
            ctx.send(paths_[p][1],
                     sim::Message{dst_, piece,
                                  static_cast<std::uint64_t>(p)});
            remaining -= piece;
        }
    }
}

void MultipathTransfer::on_receive(sim::NodeContext& ctx,
                                   const sim::Message& message) {
    if (ctx.self() == dst_) {
        received_ += message.size;
        return;
    }
    const auto p = static_cast<std::size_t>(message.tag);
    const std::size_t hop = position_[p][ctx.self()];
    HCUBE_ENSURE_MSG(hop != kNotOnPath, "chunk strayed off its path");
    ctx.send(paths_[p][hop + 1], message);
}

} // namespace hcube::routing

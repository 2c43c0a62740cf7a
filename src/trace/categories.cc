#include "trace/categories.hh"

#include "util/logging.hh"

namespace tstream
{

std::string_view
categoryName(Category c)
{
    switch (c) {
      case Category::Uncategorized: return "Uncategorized / Unknown";
      case Category::BulkMemoryCopies: return "Bulk memory copies";
      case Category::SystemCalls: return "System call implementation";
      case Category::KernelScheduler: return "Kernel task scheduler";
      case Category::KernelMmuTrap: return "Kernel MMU & trap handlers";
      case Category::KernelSync: return "Kernel synchronization primitives";
      case Category::KernelOther: return "Kernel - other activity";
      case Category::KernelStreams: return "Kernel STREAMS subsystem";
      case Category::KernelIpAssembly: return "Kernel IP packet assembly";
      case Category::WebWorker: return "Web server worker thread pool";
      case Category::CgiPerlInput: return "CGI - perl input processing";
      case Category::CgiPerlEngine: return "CGI - perl execution engine";
      case Category::CgiPerlOther: return "CGI - perl other activity";
      case Category::KernelBlockDev: return "Kernel block device driver";
      case Category::DbIndexPageTuple:
        return "DB2 index, page & tuple accesses";
      case Category::DbRequestControl: return "DB2 SQL request control";
      case Category::DbIpc: return "DB2 interprocess communication";
      case Category::DbRuntimeInterp: return "DB2 SQL runtime interpreter";
      case Category::DbOther: return "DB2 - other activity";
      case Category::KvHashIndex:
        return "KV hash index & item chains";
      case Category::KvSlabLru: return "KV slab values & LRU reuse";
      case Category::MqTopicLog: return "MQ topic log append & replay";
      case Category::MqCursorIndex:
        return "MQ cursors, index & retention";
      default: return "<invalid>";
    }
}

bool
categoryIsWeb(Category c)
{
    switch (c) {
      case Category::KernelStreams:
      case Category::KernelIpAssembly:
      case Category::WebWorker:
      case Category::CgiPerlInput:
      case Category::CgiPerlEngine:
      case Category::CgiPerlOther:
        return true;
      default:
        return false;
    }
}

bool
categoryIsDb(Category c)
{
    switch (c) {
      case Category::KernelBlockDev:
      case Category::DbIndexPageTuple:
      case Category::DbRequestControl:
      case Category::DbIpc:
      case Category::DbRuntimeInterp:
      case Category::DbOther:
        return true;
      default:
        return false;
    }
}

bool
categoryIsScenario(Category c)
{
    switch (c) {
      case Category::KvHashIndex:
      case Category::KvSlabLru:
      case Category::MqTopicLog:
      case Category::MqCursorIndex:
        return true;
      default:
        return false;
    }
}

FunctionRegistry::FunctionRegistry()
{
    // Reserved id 0.
    names_.emplace_back("<unknown>");
    cats_.push_back(Category::Uncategorized);
    index_.emplace("<unknown>", 0);
}

FnId
FunctionRegistry::intern(std::string_view name, Category cat)
{
    auto it = index_.find(std::string(name));
    if (it != index_.end()) {
        if (cats_[it->second] != cat)
            panic("FunctionRegistry: category mismatch for " +
                  std::string(name));
        return it->second;
    }
    panicIf(names_.size() >= 0xFFFF, "FunctionRegistry: too many functions");
    const FnId id = static_cast<FnId>(names_.size());
    names_.emplace_back(name);
    cats_.push_back(cat);
    index_.emplace(names_.back(), id);
    return id;
}

} // namespace tstream

// thread-spawn fixture: a pool built by the one allowlisted function,
// and a thread started by a query that should run on a lent pool.
#include <memory>
#include <thread>

namespace demo {

class ThreadPool {
 public:
  explicit ThreadPool(int workers) : workers_(workers) {}

 private:
  int workers_;
};

struct Pools {
  static std::shared_ptr<ThreadPool> MakeShared();
};

std::shared_ptr<ThreadPool> Pools::MakeShared() {
  return std::make_shared<ThreadPool>(4);
}

void MineQuery() {
  std::thread worker([] {});
  worker.join();
}

}  // namespace demo

#include "profiling/matrix_factorization.hpp"

#include <cassert>
#include <cmath>
#include <numeric>

namespace hcloud::profiling {

MatrixFactorization::MatrixFactorization(std::size_t cols, MfConfig config,
                                         std::uint64_t seed)
    : cols_(cols), config_(config), rng_(seed), colBias_(cols, 0.0)
{
    v_.resize(cols_ * config_.rank);
    for (double& x : v_)
        x = rng_.normal(0.0, 0.1);
}

std::size_t
MatrixFactorization::addRow(
    const std::vector<std::pair<std::size_t, double>>& entries)
{
    const std::size_t row = rowCount_++;
    for (const auto& [col, value] : entries) {
        assert(col < cols_);
        entries_.push_back(Entry{row, col, value});
    }
    rowBias_.push_back(0.0);
    for (std::size_t k = 0; k < config_.rank; ++k)
        u_.push_back(rng_.normal(0.0, 0.1));
    trained_ = false;
    return row;
}

void
MatrixFactorization::train()
{
    if (entries_.empty())
        return;

    globalMean_ = 0.0;
    for (const auto& e : entries_)
        globalMean_ += e.value;
    globalMean_ /= static_cast<double>(entries_.size());

    std::vector<std::size_t> order(entries_.size());
    std::iota(order.begin(), order.end(), 0);

    const double lr = config_.learningRate;
    const double reg = config_.regularization;
    for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
        rng_.shuffle(order.begin(), order.end());
        for (std::size_t idx : order) {
            const Entry& e = entries_[idx];
            double* uf = &u_[e.row * config_.rank];
            double* vf = &v_[e.col * config_.rank];
            double pred = globalMean_ + rowBias_[e.row] + colBias_[e.col];
            for (std::size_t k = 0; k < config_.rank; ++k)
                pred += uf[k] * vf[k];
            const double err = e.value - pred;
            rowBias_[e.row] += lr * (err - reg * rowBias_[e.row]);
            colBias_[e.col] += lr * (err - reg * colBias_[e.col]);
            for (std::size_t k = 0; k < config_.rank; ++k) {
                const double uk = uf[k];
                uf[k] += lr * (err * vf[k] - reg * uk);
                vf[k] += lr * (err * uk - reg * vf[k]);
            }
        }
    }
    trained_ = true;
}

double
MatrixFactorization::trainRmse() const
{
    if (entries_.empty())
        return 0.0;
    double sse = 0.0;
    for (const auto& e : entries_) {
        const double err = e.value - predict(e.row, e.col);
        sse += err * err;
    }
    return std::sqrt(sse / static_cast<double>(entries_.size()));
}

double
MatrixFactorization::predict(std::size_t row, std::size_t col) const
{
    assert(row < rowCount_ && col < cols_);
    double pred = globalMean_ + rowBias_[row] + colBias_[col];
    const double* uf = &u_[row * config_.rank];
    const double* vf = &v_[col * config_.rank];
    for (std::size_t k = 0; k < config_.rank; ++k)
        pred += uf[k] * vf[k];
    return pred;
}

double
MatrixFactorization::predictWith(const std::vector<double>& rowFactor,
                                 std::size_t col, double rowBias) const
{
    double pred = globalMean_ + rowBias + colBias_[col];
    const double* vf = &v_[col * config_.rank];
    for (std::size_t k = 0; k < config_.rank; ++k)
        pred += rowFactor[k] * vf[k];
    return pred;
}

std::vector<double>
MatrixFactorization::completeRow(
    const std::vector<std::pair<std::size_t, double>>& observed) const
{
    assert(trained_ && "completeRow() requires train()");
    std::vector<double> factor(config_.rank, 0.0);
    double bias = 0.0;
    const double lr = config_.learningRate;
    const double reg = config_.regularization;
    // Fold-in: gradient steps on the observed entries, V fixed.
    for (std::size_t it = 0; it < config_.foldInIterations; ++it) {
        for (const auto& [col, value] : observed) {
            const double err = value - predictWith(factor, col, bias);
            bias += lr * (err - reg * bias);
            const double* vf = &v_[col * config_.rank];
            for (std::size_t k = 0; k < config_.rank; ++k)
                factor[k] += lr * (err * vf[k] - reg * factor[k]);
        }
    }
    std::vector<double> out(cols_);
    for (std::size_t c = 0; c < cols_; ++c)
        out[c] = predictWith(factor, c, bias);
    // Observed entries override predictions: the measurement is strictly
    // better information than the reconstruction.
    for (const auto& [col, value] : observed)
        out[col] = value;
    return out;
}

} // namespace hcloud::profiling

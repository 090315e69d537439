import numpy as np
import pytest

from metasep.rng import SeedSpec
from metasep.tasks import Dataset, MetaInstance, Task, emp_covariance, sample_dataset, sample_task


def test_from_config_e1():
    inst = MetaInstance.from_config(4, 2.0, 0.5)
    assert np.allclose(inst.w_star, [2.0, 0.0, 0.0, 0.0])
    assert inst.r == 2.0 and inst.d == 4


def test_r_is_exact_without_overflow():
    # r is the norm of r e1 bit for bit, from the smallest accepted r, whose
    # r^2 underflows to 0 but 4 r^2 does not, to the largest
    for r in (1.0, 0.3, 2.0 ** 0.5, 6.7e153, 1e-160, 1e-162):
        assert MetaInstance.from_config(5, r, 0.0).r == r


def test_from_config_validation():
    for sigma in (-1.0, float("nan"), float("inf"), 1e200):
        with pytest.raises(ValueError, match=r"sigma must be nonnegative with sigma\^2 finite"):
            MetaInstance.from_config(2, 1.0, sigma)
    for d in (0, -1):
        with pytest.raises(ValueError, match="need d >= 1"):
            MetaInstance.from_config(d, 1.0, 0.5)
    # 4 r^2, the meta-step's expression, overflows above about 6.7e153 and
    # underflows to 0 below about 7.5e-163
    for r in (0.0, -1.0, float("nan"), float("inf"), 6.71e153, 1e154, 1e155, 1e300,
              7e-163, 1e-200):
        with pytest.raises(ValueError, match=r"r must be positive with 4 r\^2 finite and nonzero"):
            MetaInstance.from_config(2, r, 0.5)


def test_sample_task_deterministic_and_referencing():
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    t1 = sample_task(inst, SeedSpec(5))
    t2 = sample_task(inst, SeedSpec(5))
    assert t1.sign == t2.sign
    assert t1.instance is inst
    assert np.allclose(t1.target, t1.sign * inst.w_star)


def test_sample_task_sign_balance():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    signs = [sample_task(inst, SeedSpec(77).child(i)).sign for i in range(10 ** 4)]
    frac = np.mean(np.array(signs) == 1)
    assert abs(frac - 0.5) < 0.02


def test_dataset_label_consistency_noiseless():
    inst = MetaInstance.from_config(5, 1.3, 0.0)
    task = sample_task(inst, SeedSpec(8))
    ds = sample_dataset(task, 12, SeedSpec(9))
    assert np.array_equal(ds.y, ds.x @ task.target)


def test_dataset_hand_example():
    # one sample, d=1: y = x * (s w*) + noise
    inst = MetaInstance(np.array([2.0]), 1.0)
    task = Task(inst, -1)
    ds = Dataset(x=np.array([[0.5]]), y=np.array([[0.5]]) @ task.target + 0.1)
    assert np.isclose(ds.y[0], -0.9)


def test_dataset_covariance_lln():
    inst = MetaInstance.from_config(4, 1.0, 1.0)
    task = sample_task(inst, SeedSpec(11))
    ds = sample_dataset(task, 10 ** 5, SeedSpec(12))
    assert np.max(np.abs(emp_covariance(ds) - np.eye(4))) < 0.02


def test_emp_converges_to_pop():
    # the mean squared error of x -> w^T x on a sample converges to its
    # population value ||w - target||^2 + sigma^2
    inst = MetaInstance.from_config(3, 1.0, 1.0)
    w = np.array([0.5, 0.0, -0.5])
    gaps = []
    for k in range(60):
        task = sample_task(inst, SeedSpec(500).child(k, 0))
        ds = sample_dataset(task, 10 ** 4, SeedSpec(500).child(k, 1))
        diff = w - task.target
        gaps.append(np.mean((ds.x @ w - ds.y) ** 2) - (diff @ diff + inst.sigma ** 2))
    gaps = np.array(gaps)
    stderr = gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert abs(gaps.mean()) <= 5 * stderr


def test_sample_dataset_validation():
    inst = MetaInstance.from_config(2, 1.0, 0.0)
    with pytest.raises(ValueError):
        sample_dataset(Task(inst, 1), 0, SeedSpec(1))

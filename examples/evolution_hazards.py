"""The §3.1 evolution hazards — demonstrated, then prevented (§3.2).

Unrestricted dynamic configurability "can lead to significant
problems" (§6).  This example reproduces each of the paper's four
hazards against a live DCDO, then shows the §3.2 mechanism that
eliminates it:

1. disappearing exported function  -> mandatory markings
2. missing internal function      -> structural (Type A) dependencies,
                                     derived automatically by static
                                     analysis of the component
3. disappearing internal function -> dependency + thread-aware disable
4. disappearing component         -> thread activity monitoring with
                                     error / delay removal policies

Run with::

    python examples/evolution_hazards.py
"""

from repro import build_dcdo_system
from repro.core import (
    ComponentBuilder,
    ComponentBusy,
    Dependency,
    DependencyViolation,
    FunctionNotEnabled,
    MandatoryViolation,
    RemovePolicy,
    annotate_component,
)
from repro.core.manager import define_dcdo_type
from repro.legion.errors import MethodNotFound


def report(ctx):
    summary = yield from ctx.call("summarize")
    return f"report[{summary}]"


def sleepy_report(ctx):
    """``report`` with a pause before its outcall, for hazard [3]."""
    yield ctx.work(2.0)  # thread inactive here
    result = yield from ctx.call("summarize")
    return result


def summarize(ctx):
    return "ok"


def slow_job(ctx, seconds):
    yield ctx.work(seconds)
    return "job done"


def build_service(
    runtime, type_name, remove_policy=None, with_dependencies=False, report_body=report
):
    reporting = (
        ComponentBuilder("reporting")
        .function("report", report_body)
        .function("summarize", summarize)
        .function("slow_job", slow_job)
        .variant(size_bytes=100_000)
        .build()
    )
    if with_dependencies:
        # §3.2: structural dependencies derived by static analysis.
        added = annotate_component(reporting)
        print(f"  analyzer derived: {[str(dep) for dep in added]}")
    manager = define_dcdo_type(runtime, type_name, remove_policy=remove_policy)
    manager.register_component(reporting)
    version = manager.new_version()
    manager.incorporate_into(version, "reporting")
    descriptor = manager.descriptor_of(version)
    for name in ("report", "summarize", "slow_job"):
        descriptor.enable(name, "reporting")
    manager.mark_instantiable(version)
    manager.set_current_version(version)
    loid = runtime.sim.run_process(manager.create_instance())
    return manager, loid


def hazard_1_disappearing_exported_function():
    print("\n[1] Disappearing exported function")
    runtime = build_dcdo_system(hosts=4, seed=1)
    __, loid = build_service(runtime, "Svc1")
    client = runtime.make_client("host02")
    interface = client.call_sync(loid, "getInterface")
    print(f"  client fetched interface: {interface}")
    client.call_sync(loid, "disableFunction", "report", "reporting")
    try:
        client.call_sync(loid, "report")
    except MethodNotFound as error:
        print(f"  HAZARD: invocation built against that interface failed: {error}")
    # Prevention: mark it mandatory; the disable is now refused.
    client.call_sync(loid, "enableFunction", "report", "reporting")
    manager_obj = runtime.find_object(loid)
    manager_obj.dfm.mark_mandatory("report")
    try:
        client.call_sync(loid, "disableFunction", "report", "reporting")
    except MandatoryViolation as error:
        print(f"  PREVENTED by mandatory marking: {error}")


def hazard_2_missing_internal_function():
    print("\n[2] Missing internal function")
    runtime = build_dcdo_system(hosts=4, seed=2)
    __, loid = build_service(runtime, "Svc2")
    client = runtime.make_client("host02")
    client.call_sync(loid, "disableFunction", "summarize", "reporting")
    try:
        client.call_sync(loid, "report")
    except FunctionNotEnabled as error:
        print(f"  HAZARD: report reached a call it could not carry out: {error}")

    print("  rebuilding with analyzer-derived Type A dependencies...")
    runtime = build_dcdo_system(hosts=4, seed=2)
    __, loid = build_service(runtime, "Svc2b", with_dependencies=True)
    client = runtime.make_client("host02")
    try:
        client.call_sync(loid, "disableFunction", "summarize", "reporting")
    except DependencyViolation as error:
        print(f"  PREVENTED by dependency: {error}")


def hazard_3_disappearing_internal_function():
    print("\n[3] Disappearing internal function (during an outcall)")
    runtime = build_dcdo_system(hosts=4, seed=3)
    __, loid = build_service(runtime, "Svc3", report_body=sleepy_report)
    client_a = runtime.make_client("host02")
    client_b = runtime.make_client("host03")
    outcomes = {}

    def worker():
        try:
            outcomes["report"] = yield from client_a.invoke(
                loid, "report", timeout_schedule=(60.0,)
            )
        except FunctionNotEnabled as error:
            outcomes["report"] = error

    def config():
        yield runtime.sim.timeout(0.5)
        yield from client_b.invoke(loid, "disableFunction", "summarize", "reporting")

    runtime.sim.spawn(worker())
    runtime.sim.spawn(config())
    runtime.sim.run()
    print(f"  HAZARD: the sleeping thread awoke to: {outcomes['report']!r}")
    print("  PREVENTED the same way as [2]: the dependency chain vetoes the")
    print("  disable, or disableFunction(..., wait_for_dependents=True)")
    print("  postpones it until the thread count drains (§3.2).")


def hazard_4_disappearing_component():
    print("\n[4] Disappearing component")
    runtime = build_dcdo_system(hosts=4, seed=4)
    __, loid = build_service(runtime, "Svc4", remove_policy=RemovePolicy.error())
    client_a = runtime.make_client("host02")
    client_b = runtime.make_client("host03")
    outcomes = {}

    def worker():
        outcomes["job"] = yield from client_a.invoke(
            loid, "slow_job", 5.0, timeout_schedule=(60.0,)
        )

    def remover():
        yield runtime.sim.timeout(1.0)
        try:
            yield from client_b.invoke(loid, "removeComponent", "reporting")
        except ComponentBusy as error:
            outcomes["remove"] = error

    runtime.sim.spawn(worker())
    runtime.sim.spawn(remover())
    runtime.sim.run()
    print(f"  PREVENTED by thread activity monitoring: {outcomes['remove']}")
    print(f"  the in-flight call still completed: {outcomes['job']!r}")
    print("  (RemovePolicy.delay() would instead wait; RemovePolicy.timeout(g)")
    print("  waits up to g seconds and then proceeds, accepting the hazard.)")


def main():
    print("Reproducing the four §3.1 hazards and their §3.2 preventions")
    hazard_1_disappearing_exported_function()
    hazard_2_missing_internal_function()
    hazard_3_disappearing_internal_function()
    hazard_4_disappearing_component()


if __name__ == "__main__":
    main()

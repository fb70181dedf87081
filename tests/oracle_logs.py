"""Wrappers that log every answer a root oracle kernel gives, for the accounting tests.

Each wrapper calls ``log(members, by_hook)`` before each answer, with the
canonical set the answer is for.  A plain wrapper (``hooked`` false) carries
no hook, so ``SetFunction`` and ``Matroid`` ask it once per answer.  A
hooked wrapper also carries the kernel's own hooks, wrapped so that each
hook answer logs the set it answers for.
"""

from submod import canonical


def logged_evaluator(evaluate, log, hooked):
    """A value kernel's wrapper; a hooked one logs each ``add(u)`` as ``canonical(anchored + (u,))``."""

    def wrapper(members):
        log(members, False)
        return evaluate(members)

    if hooked:
        extend = evaluate.extend  # every kernel of a random_instance has one: its weights are ints

        def logged_extend(anchored):
            add = extend(anchored)

            def logged_add(u):
                log(canonical(anchored + (u,)), True)
                return add(u)

            return logged_add

        wrapper.extend = logged_extend
    return wrapper


def logged_independence(independent, log, hooked):
    """An independence kernel's wrapper; a hooked one logs each ``swap`` and ``offer`` answer.

    ``swap(add, drop)`` answers for ``base - {drop} + {add}``, and
    ``offer(u)`` for the scan's members plus u; the logged scan keeps u as
    a member exactly when the kernel's ``offer`` says yes.
    """

    def wrapper(members):
        log(members, False)
        return independent(members)

    if hooked:
        exchange, scan = independent.exchange, independent.scan  # build attaches both to every kernel

        def logged_exchange(base):
            swap = exchange(base)

            def logged_swap(add, drop):
                log(canonical({*base, add} - {drop, None}), True)
                return swap(add, drop)

            return logged_swap

        def logged_scan(anchored):
            offer = scan(anchored)
            members = set(anchored)

            def logged_offer(u):
                log(canonical(members | {u}), True)
                if offer(u):
                    members.add(u)
                    return True
                return False

            return logged_offer

        wrapper.exchange, wrapper.scan = logged_exchange, logged_scan
    return wrapper

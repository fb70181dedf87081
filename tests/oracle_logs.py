"""Wrappers that log every answer a root oracle kernel gives, for the accounting tests.

Each wrapper calls ``log(members, by_hook)`` before each answer, with the
canonical set the answer is for.  A plain wrapper (``hooked`` false) carries
no hook, so ``SetFunction`` and ``Matroid`` ask it once per answer.  A
hooked wrapper also carries the kernel's own hook (a value kernel's
``extend``, an independence kernel's ``exchange``), wrapped so that each
hook answer logs the set it answers for.
"""

from submod import canonical


def logged_evaluator(evaluate, log, hooked):
    """A value kernel's wrapper; a hooked one logs each entry u of a row as ``canonical(anchored + (u,))``.

    A row function that carries ``grow`` keeps it, wrapped: ``grow(u)``
    returns the logged row function of ``anchored + (u,)``, so derived rows
    log each entry as full rows do.
    """

    def wrapper(members):
        log(members, False)
        return evaluate(members)

    def logged_rows(marginals, anchored):
        def logged_marginals(ids, offset):
            for u in ids:
                log(canonical(anchored + (u,)), True)
            return marginals(ids, offset)

        if hasattr(marginals, "grow"):
            logged_marginals.grow = lambda u: logged_rows(marginals.grow(u), canonical(anchored + (u,)))
        return logged_marginals

    if hooked:
        extend = evaluate.extend  # every kernel of a random_instance has one: its weights are ints
        wrapper.extend = lambda anchored: logged_rows(extend(anchored), anchored)
    return wrapper


def logged_independence(independent, log, hooked):
    """An independence kernel's wrapper; a hooked one logs each ``swap`` answer.

    ``swap(add, drop)`` answers for ``base - {drop} + {add}``, whether an
    exchange test or a greedy scan asks it: a scan's offer of u is
    ``swap(u, None)`` on its members so far, so it logs as the members plus u.
    """

    def wrapper(members):
        log(members, False)
        return independent(members)

    if hooked:
        exchange = independent.exchange  # build attaches it to every kernel

        def logged_exchange(base):
            swap = exchange(base)
            if swap is None:  # declined: core asks the wrapper itself
                return None

            def logged_swap(add, drop):
                log(canonical({*base, add} - {drop, None}), True)
                return swap(add, drop)

            return logged_swap

        wrapper.exchange = logged_exchange
    return wrapper

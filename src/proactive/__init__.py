"""Proactive policy enforcement toolkit.

Encodes API correctness policies as edit automata, deploys them as
proactive modules inside a policy enforcer, and heals executions of
simulated faulty apps by suppressing and inserting API calls.
"""
